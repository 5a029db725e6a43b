package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestEmbeddedFieldsArePromoted lists a module whose root package embeds
// structs of its own and of an internal package, directly, through a pointer
// and through an alias: every promoted exported field is listed under the
// embedding type, so removing one from the embedded struct is an API removal.
// A result list names each result's type, and a function returning a pointer
// into internal/ is a violation.
func TestEmbeddedFieldsArePromoted(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("api.go", `package noftl

import "noftl/internal/inner"

type Stats struct {
	inner.Counts
	*Local
	hidden
	Name string
}

type Local struct{ Own int64 }

type hidden struct{ Shown, unshown int }

type Wide = inner.Wide

func Split(a, b int) (n, m int, err error) { return }

func Leak() []*inner.Counts { return nil }
`)
	write("internal/inner/inner.go", `package inner

type Counts struct{ Reads, Writes int64 }

type Wide struct {
	Alias
	Extra int
}

type Alias = Counts
`)
	lines, violations, err := surface(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"field Local.Own int64",
		"field Stats.Name string",
		"field Stats.Own int64",
		"field Stats.Reads int64",
		"field Stats.Shown int",
		"field Stats.Writes int64",
		"field Wide.Extra int",
		"field Wide.Reads int64",
		"field Wide.Writes int64",
		"func Leak() ([]*inner.Counts)",
		"func Split(int, int) (int, int, error)",
		"type Local struct",
		"type Stats struct",
		"type Wide = decl",
	}
	wantViolations := []string{"api.go: func Leak returns []*inner.Counts (pointer into internal/)"}
	if !slices.Equal(lines, want) || !slices.Equal(violations, wantViolations) {
		t.Errorf("surface:\n%q\nviolations %q\nwant:\n%q\n%q", lines, violations, want, wantViolations)
	}
}
