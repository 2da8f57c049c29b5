package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestParseExps: -exp is outside input — every name must be a known
// experiment (a misspelt one used to select nothing and exit 0).
func TestParseExps(t *testing.T) {
	for _, tc := range []struct {
		name, list string
		want       []string // sorted; nil = rejected
	}{
		{"all", "all", []string{"all"}},
		{"valid list with spaces", " fig2, boom ,a1", []string{"a1", "boom", "fig2"}},
		{"empty element", "fig2,,boom", nil},
		{"empty list", "", nil},
		{"one unknown among valid", "fig2,fig3,boom", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExps(tc.list)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExps(%q) = %v, want an error", tc.list, got)
				}
				if msg := err.Error(); !strings.Contains(msg, strings.Join(experiments, ",")) {
					t.Errorf("error %q does not list the valid experiments", msg)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseExps(%q): %v", tc.list, err)
			}
			if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, tc.want) {
				t.Errorf("parseExps(%q) selects %v, want %v", tc.list, names, tc.want)
			}
		})
	}
}
