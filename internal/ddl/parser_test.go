package ddl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// parse returns the statements of a script without their positions.
func parse(input string) ([]Statement, error) {
	parsed, err := ParseAll(input)
	out := make([]Statement, len(parsed))
	for i, ps := range parsed {
		out[i] = ps.Stmt
	}
	return out, err
}

// parseOne parses a script that must hold exactly one statement.
func parseOne(input string) (Statement, error) {
	parsed, err := ParseAll(input)
	if err != nil {
		return nil, err
	}
	if len(parsed) != 1 {
		return nil, fmt.Errorf("%w: expected exactly one statement, got %d", ErrSyntax, len(parsed))
	}
	return parsed[0].Stmt, nil
}

func TestParsePaperStatements(t *testing.T) {
	// The exact DDL from §2 of the paper.
	input := `
CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 128K );
CREATE TABLE T(t_id NUMBER(3))TABLESPACE tsHotTbl;
`
	stmts, err := parse(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	cr, ok := stmts[0].(CreateRegion)
	if !ok {
		t.Fatalf("stmt 0 is %T", stmts[0])
	}
	if cr.Name != "rgHotTbl" || cr.MaxChips != 8 || cr.MaxChannels != 4 || cr.MaxSizeBytes != 1280*(1<<20) {
		t.Fatalf("CreateRegion = %+v", cr)
	}
	ct, ok := stmts[1].(CreateTablespace)
	if !ok {
		t.Fatalf("stmt 1 is %T", stmts[1])
	}
	if ct.Name != "tsHotTbl" || ct.Region != "rgHotTbl" || ct.ExtentSizeBytes != 128*(1<<10) {
		t.Fatalf("CreateTablespace = %+v", ct)
	}
	tb, ok := stmts[2].(CreateTable)
	if !ok {
		t.Fatalf("stmt 2 is %T", stmts[2])
	}
	if tb.Name != "T" || tb.Tablespace != "tsHotTbl" || len(tb.Columns) != 1 ||
		tb.Columns[0].Name != "t_id" || tb.Columns[0].Type != "NUMBER(3)" {
		t.Fatalf("CreateTable = %+v", tb)
	}
}

func TestParseCreateTableMultiColumn(t *testing.T) {
	st, err := parseOne(`CREATE TABLE STOCK (
		s_i_id INTEGER,
		s_w_id INTEGER,
		s_quantity NUMBER(4),
		s_dist_01 CHAR(24),
		s_data VARCHAR(50)
	) TABLESPACE tsStock`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(CreateTable)
	if len(ct.Columns) != 5 || ct.Columns[4].Type != "VARCHAR(50)" || ct.Tablespace != "tsStock" {
		t.Fatalf("%+v", ct)
	}
	// Without a tablespace clause.
	st, err = parseOne("CREATE TABLE X (a INTEGER)")
	if err != nil {
		t.Fatal(err)
	}
	if st.(CreateTable).Tablespace != "" {
		t.Fatal("unexpected tablespace")
	}
	// DECIMAL(12,2) style types.
	st, err = parseOne("CREATE TABLE Y (amount DECIMAL(12,2))")
	if err != nil {
		t.Fatal(err)
	}
	if st.(CreateTable).Columns[0].Type != "DECIMAL(12,2)" {
		t.Fatalf("%+v", st)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st, err := parseOne("CREATE UNIQUE INDEX C_IDX ON CUSTOMER (c_w_id, c_d_id, c_id) TABLESPACE tsIdx")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(CreateIndex)
	if !ci.Unique || ci.Table != "CUSTOMER" || len(ci.Columns) != 3 || ci.Tablespace != "tsIdx" {
		t.Fatalf("%+v", ci)
	}
	st, err = parseOne("CREATE INDEX C_NAME_IDX ON CUSTOMER (c_last)")
	if err != nil {
		t.Fatal(err)
	}
	if st.(CreateIndex).Unique {
		t.Fatal("unexpected unique")
	}
}

func TestParseDropAndVariants(t *testing.T) {
	stmts, err := parse(`
		DROP TABLE T;
		DROP REGION rgHotTbl;
		DROP TABLESPACE tsHotTbl;
		DROP INDEX I;
		CREATE REGION simple;
		CREATE TABLESPACE plain;
		CREATE TABLESPACE alt (EXTENT_SIZE=64K);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 7 {
		t.Fatalf("parsed %d", len(stmts))
	}
	if d := stmts[0].(DropStatement); d.Kind != "TABLE" || d.Name != "T" {
		t.Fatalf("%+v", d)
	}
	if d := stmts[1].(DropStatement); d.Kind != "REGION" {
		t.Fatalf("%+v", d)
	}
	if r := stmts[4].(CreateRegion); r.Name != "simple" || r.MaxChips != 0 {
		t.Fatalf("%+v", r)
	}
	if ts := stmts[6].(CreateTablespace); ts.ExtentSizeBytes != 64*1024 {
		t.Fatalf("%+v", ts)
	}
}

func TestParseSizes(t *testing.T) {
	cases := map[string]int64{"64": 64, "128K": 128 << 10, "1280M": 1280 << 20, "2G": 2 << 30, "16k": 16 << 10}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v", in, got, err)
		}
	}
	if _, err := parseSize("abcM"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM T",
		"CREATE",
		"CREATE VIEW v",
		"CREATE REGION r (BOGUS=1)",
		"CREATE REGION r (MAX_CHIPS 8)",
		"CREATE REGION r (MAX_CHIPS=4K)",
		"CREATE REGION r (MAX_CHANNELS=2M)",
		"CREATE TABLESPACE t (WHAT=1)",
		"CREATE TABLE T",
		"CREATE TABLE T (a INTEGER",
		"CREATE INDEX i ON (a)",
		"CREATE UNIQUE TABLE T (a INTEGER)",
		"DROP DATABASE x",
		"CREATE TABLE T (a INTEGER) extra",
		"CREATE TABLE T (a VARCHAR('x'))",
	}
	for _, in := range bad {
		if _, err := parse(in); err == nil {
			t.Errorf("accepted invalid DDL: %q", in)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("%q: error is not ErrSyntax: %v", in, err)
		}
	}
	// Lexer-level errors.
	if _, err := parse("CREATE TABLE T (a INTEGER) @"); err == nil {
		t.Error("accepted stray character")
	}
	if _, err := parse("CREATE TABLE T (a 'unterminated)"); err == nil {
		t.Error("accepted unterminated string")
	}
}

func TestParseAllSplitsStatements(t *testing.T) {
	parsed, err := ParseAll("DROP TABLE a; DROP TABLE b")
	if err != nil || len(parsed) != 2 || parsed[0].Pos != 0 || parsed[1].Pos != 14 {
		t.Fatalf("ParseAll of two statements = %+v, %v", parsed, err)
	}
	if parsed, err := ParseAll(""); err != nil || len(parsed) != 0 {
		t.Fatalf("ParseAll of empty input = %+v, %v", parsed, err)
	}
}

func TestParseComments(t *testing.T) {
	stmts, err := parse(`
		-- create the hot region
		CREATE REGION rg1 (MAX_CHIPS=2); -- trailing comment
	`)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("comments broke parsing: %v (%d)", err, len(stmts))
	}
	// Quoted identifiers.
	st, err := parseOne(`CREATE TABLE "MiXeD" (a INTEGER) TABLESPACE 'tsX'`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(CreateTable)
	if ct.Name != "MiXeD" || ct.Tablespace != "tsX" {
		t.Fatalf("%+v", ct)
	}
}

// TestCreateRegionGCOptions: GC_POLICY is the one garbage-collection option
// of CREATE REGION; the step bound and hot/cold routing are DB-wide settings.
func TestCreateRegionGCOptions(t *testing.T) {
	st, err := parseOne(`CREATE REGION rgHot (MAX_CHIPS=4, GC_POLICY=COST_BENEFIT);`)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := st.(CreateRegion)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if cr.MaxChips != 4 || cr.GCPolicy != "COST_BENEFIT" {
		t.Fatalf("wrong clause: %+v", cr)
	}
	// Case-insensitive keys and values.
	st, err = parseOne(`create region r2 (max_chips=1, gc_policy=greedy);`)
	if err != nil {
		t.Fatal(err)
	}
	if cr = st.(CreateRegion); cr.GCPolicy != "GREEDY" {
		t.Fatalf("wrong clause: %+v", cr)
	}
	for _, bad := range []string{
		`CREATE REGION r (MAX_CHIPS=1, GC_STEP_PAGES=4);`,
		`CREATE REGION r (MAX_CHIPS=1, HOT_COLD=OFF);`,
		`CREATE REGION r (MAX_DIES=4);`,
	} {
		var se *SyntaxError
		if _, err := parseOne(bad); !errors.As(err, &se) || !strings.HasPrefix(se.Msg, "unknown region option") {
			t.Fatalf("%q: %v, want an unknown region option", bad, err)
		}
	}
}

// TestAlterRegion: a region's policy is fixed at CREATE REGION, so ALTER is
// not a statement.
func TestAlterRegion(t *testing.T) {
	for _, bad := range []string{
		`ALTER REGION rgHot SET GC_POLICY=COST_BENEFIT;`,
		`ALTER REGION rgHot SET (HOT_COLD=OFF);`,
		`ALTER TABLE t SET GC_POLICY=GREEDY;`,
	} {
		if _, err := parseOne(bad); !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: %v, want a syntax error", bad, err)
		}
	}
}
