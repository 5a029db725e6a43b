package ddl

import (
	"reflect"
	"testing"
)

// FuzzDDLParse feeds the parser arbitrary scripts, seeded with one statement of
// each kind.  Two properties:
//
//  1. ParseAll never panics — DDL comes from users and from the schema marks
//     a recovery reads back;
//  2. an accepted script is the sum of its statements: the text of each, from
//     its Pos to the next statement's, parses alone to the
//     same statement.
func FuzzDDLParse(f *testing.F) {
	f.Add(`CREATE REGION rgHot (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M, GC_POLICY=COST_BENEFIT);`)
	f.Add(`DROP REGION rgHot;`)
	f.Add(`CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 128K);`)
	f.Add(`CREATE TABLE STOCK (s_i_id INTEGER, s_w_id NUMBER(3), s_data VARCHAR(50), s_ytd DECIMAL(12,2)) TABLESPACE tsHot;`)
	f.Add(`CREATE UNIQUE INDEX S_IDX ON STOCK (s_w_id, s_i_id) TABLESPACE tsHot;`)
	f.Add(`DROP TABLE STOCK;`)
	f.Add("-- a script\nCREATE REGION r; CREATE TABLESPACE t (REGION=r);;CREATE TABLE \"MiXeD\" (a INTEGER) TABLESPACE 't' -- end")

	f.Fuzz(func(t *testing.T, script string) {
		parsed, err := ParseAll(script)
		if err != nil {
			return
		}
		for i, ps := range parsed {
			end := len(script)
			if i+1 < len(parsed) {
				end = parsed[i+1].Pos
			}
			text := script[ps.Pos:end]
			st, err := parseOne(text)
			if err != nil {
				t.Fatalf("statement %d %q of an accepted script does not parse alone: %v", i, text, err)
			}
			if !reflect.DeepEqual(st, ps.Stmt) {
				t.Fatalf("statement %d %q parses alone to %+v, in the script to %+v", i, text, st, ps.Stmt)
			}
		}
	})
}
