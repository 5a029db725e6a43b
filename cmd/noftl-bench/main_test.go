package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	type testCase struct {
		arg  string
		want []string // nil: refused
	}
	cases := []testCase{
		{"all", []string{"all"}},
		{" Figure3, batch_dml ,,a6", []string{"figure3", "batch_dml", "a6"}},
		{strings.Join(experimentNames, ","), experimentNames},
		{"bogus", nil},
		{"a6,ftl", nil},
		{"batch", nil},
		{"tpcc", nil},
	}
	for _, name := range experimentNames {
		cases = append(cases, testCase{name, []string{name}})
	}
	for _, c := range cases {
		got, err := selectExperiments(c.arg)
		if c.want == nil {
			if err == nil {
				t.Errorf("-experiment %q accepted: %v", c.arg, got)
				continue
			}
			for _, name := range append([]string{"all"}, experimentNames...) {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("-experiment %q: refusal %q does not list %q", c.arg, err, name)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-experiment %q refused: %v", c.arg, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("-experiment %q selected %v, want %v", c.arg, got, c.want)
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("-experiment %q did not select %q", c.arg, name)
			}
		}
	}
}
