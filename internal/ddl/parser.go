package ddl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSyntax reports a DDL statement the parser cannot understand.
var ErrSyntax = errors.New("ddl: syntax error")

// SyntaxError is the structured form of a parse failure.  It wraps ErrSyntax
// (so errors.Is(err, ErrSyntax) keeps working) and records where in the input
// the parser gave up.
type SyntaxError struct {
	// Pos is the byte offset in the parsed input.
	Pos int
	// Msg describes what the parser expected.
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("ddl: syntax error: %s (near position %d)", e.Msg, e.Pos)
}

// Unwrap makes errors.Is(err, ErrSyntax) true.
func (e *SyntaxError) Unwrap() error { return ErrSyntax }

// ColumnDef is one column of a CREATE TABLE statement.
type ColumnDef struct {
	Name string
	Type string
}

// Statement is implemented by every parsed DDL statement.
type Statement interface{ stmt() }

// CreateRegion mirrors CREATE REGION name (MAX_CHIPS=…, MAX_CHANNELS=…,
// MAX_SIZE=…, GC_POLICY=…).
type CreateRegion struct {
	Name         string
	MaxChips     int
	MaxChannels  int
	MaxSizeBytes int64
	// GCPolicy is the victim-selection policy (GREEDY or COST_BENEFIT);
	// empty means the engine default.
	GCPolicy string
}

// CreateTablespace mirrors CREATE TABLESPACE name (REGION=…, EXTENT SIZE …).
type CreateTablespace struct {
	Name            string
	Region          string
	ExtentSizeBytes int64
}

// CreateTable mirrors CREATE TABLE name (cols…) TABLESPACE ts.
type CreateTable struct {
	Name       string
	Columns    []ColumnDef
	Tablespace string
}

// CreateIndex mirrors CREATE [UNIQUE] INDEX name ON table (cols…) TABLESPACE ts.
type CreateIndex struct {
	Name       string
	Table      string
	Columns    []string
	Unique     bool
	Tablespace string
}

// DropStatement mirrors DROP REGION/TABLESPACE/TABLE/INDEX name.
type DropStatement struct {
	Kind string // REGION, TABLESPACE, TABLE, INDEX
	Name string
}

func (CreateRegion) stmt()     {}
func (CreateTablespace) stmt() {}
func (CreateTable) stmt()      {}
func (CreateIndex) stmt()      {}
func (DropStatement) stmt()    {}

type parser struct {
	toks []token
	pos  int
}

// Parsed pairs a statement with its location in the original input, so
// callers can report which statement of a multi-statement script failed.
type Parsed struct {
	// Stmt is the parsed statement.
	Stmt Statement
	// Pos is the byte offset of the statement's first token in the input.
	Pos int
}

// ParseAll parses one or more semicolon-separated DDL statements, reporting
// each statement's byte offset in the input alongside it.
func ParseAll(input string) ([]Parsed, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Parsed
	for {
		for p.acceptPunct(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		start := p.peek().pos
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, Parsed{Stmt: st, Pos: start})
		if !p.acceptPunct(";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' after statement")
		}
	}
	return out, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokString {
		return "", p.errorf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

func (p *parser) expectNumber() (string, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return "", p.errorf("expected number")
	}
	p.pos++
	return t.text, nil
}

// parseSize converts "1280M", "128K", "64" (bytes) into bytes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad size %q", ErrSyntax, s)
	}
	return v * mult, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("CREATE"):
		switch {
		case p.acceptKeyword("REGION"):
			return p.createRegion()
		case p.acceptKeyword("TABLESPACE"):
			return p.createTablespace()
		case p.acceptKeyword("TABLE"):
			return p.createTable()
		case p.acceptKeyword("UNIQUE"):
			if err := p.expectKeyword("INDEX"); err != nil {
				return nil, err
			}
			return p.createIndex(true)
		case p.acceptKeyword("INDEX"):
			return p.createIndex(false)
		default:
			return nil, p.errorf("expected REGION, TABLESPACE, TABLE or INDEX after CREATE")
		}
	case p.acceptKeyword("DROP"):
		kindTok := p.next()
		kind := strings.ToUpper(kindTok.text)
		switch kind {
		case "REGION", "TABLESPACE", "TABLE", "INDEX":
		default:
			return nil, p.errorf("cannot DROP %q", kindTok.text)
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return DropStatement{Kind: kind, Name: name}, nil
	default:
		return nil, p.errorf("expected CREATE or DROP")
	}
}

func (p *parser) createRegion() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := CreateRegion{Name: name}
	if p.acceptPunct("(") {
		for {
			key, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			switch strings.ToUpper(key) {
			case "MAX_CHIPS":
				val, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, p.errorf("bad MAX_CHIPS value %q", val)
				}
				st.MaxChips = n
			case "MAX_CHANNELS":
				val, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, p.errorf("bad MAX_CHANNELS value %q", val)
				}
				st.MaxChannels = n
			case "MAX_SIZE":
				val, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				sz, err := parseSize(val)
				if err != nil {
					return nil, err
				}
				st.MaxSizeBytes = sz
			case "GC_POLICY":
				val, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				st.GCPolicy = strings.ToUpper(val)
			default:
				return nil, p.errorf("unknown region option %q", key)
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) createTablespace() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := CreateTablespace{Name: name}
	if p.acceptPunct("(") {
		for {
			key, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			switch strings.ToUpper(key) {
			case "REGION":
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				reg, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				st.Region = reg
			case "EXTENT":
				// "EXTENT SIZE 128K" (the paper's syntax) or "EXTENT_SIZE=128K".
				if err := p.expectKeyword("SIZE"); err != nil {
					return nil, err
				}
				val, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				sz, err := parseSize(val)
				if err != nil {
					return nil, err
				}
				st.ExtentSizeBytes = sz
			case "EXTENT_SIZE":
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				val, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				sz, err := parseSize(val)
				if err != nil {
					return nil, err
				}
				st.ExtentSizeBytes = sz
			default:
				return nil, p.errorf("unknown tablespace option %q", key)
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := CreateTable{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		colType, err := p.parseColumnType()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, ColumnDef{Name: colName, Type: colType})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("TABLESPACE") {
		ts, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Tablespace = ts
	}
	return st, nil
}

// parseColumnType consumes a type name with an optional parenthesised
// argument list, e.g. NUMBER(3), VARCHAR(24), DECIMAL(12,2), INTEGER.
func (p *parser) parseColumnType() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	typ := strings.ToUpper(name)
	if p.acceptPunct("(") {
		var args []string
		for {
			n, err := p.expectNumber()
			if err != nil {
				return "", err
			}
			args = append(args, n)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return "", err
		}
		typ = fmt.Sprintf("%s(%s)", typ, strings.Join(args, ","))
	}
	return typ, nil
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := CreateIndex{Name: name, Table: table, Unique: unique}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("TABLESPACE") {
		ts, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Tablespace = ts
	}
	return st, nil
}
