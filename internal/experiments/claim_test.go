package experiments

import (
	"math"
	"strings"
	"testing"
	"unicode"
)

// TestClaimsReadTheirExhibits: every claim belongs to a listed exhibit,
// reads only columns that exhibit's table renders, and measures finite
// numbers on a small suite that includes a divergent benchmark (bfs). A
// renamed column fails here instead of printing NaN% in warpedreport.
func TestClaimsReadTheirExhibits(t *testing.T) {
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	claimed := Claimed()
	if len(claimed) != 14 {
		t.Fatalf("%d claimed exhibits, want 14: %v", len(claimed), claimed)
	}
	r := fastRunner(t)
	for _, id := range claimed {
		if !ids[id] {
			t.Fatalf("claim on %q, which is not an exhibit", id)
		}
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rendered := map[string]bool{}
		for _, col := range tab.Columns {
			rendered[col] = true
		}
		lookup(id).claim.measure(func(col string) float64 {
			if !rendered[col] {
				t.Errorf("%s: claim reads column %q, which the table does not render (%v)", id, col, tab.Columns)
			}
			return tab.Average(col)
		})

		c, values, measured := tab.Claim()
		if c == nil {
			t.Fatalf("%s: claimed exhibit measures no claim", id)
		}
		if len(values) != len(c.Units) {
			t.Fatalf("%s: %d values named by %d units", id, len(values), len(c.Units))
		}
		seen := map[string]bool{}
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a finite number", id, c.Units[i], v)
			}
			if u := c.Units[i]; u == "" || strings.IndexFunc(u, unicode.IsSpace) >= 0 || seen[u] {
				t.Errorf("%s: unit %q is not a distinct benchmark metric name", id, u)
			}
			seen[c.Units[i]] = true
		}
		if strings.Contains(measured, "NaN") || strings.Contains(measured, "%!") {
			t.Errorf("%s: measured %q", id, measured)
		}
	}
}

// TestClaimAbsent: an exhibit without a claim measures none, and a column
// the table lacks averages to NaN.
func TestClaimAbsent(t *testing.T) {
	tab, err := fastRunner(t).Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if c, _, _ := tab.Claim(); c != nil {
		t.Fatalf("fig12 makes no claim, got %+v", c)
	}
	if v := tab.Average("non-divergent"); math.IsNaN(v) {
		t.Fatal("fig12's non-divergent average is NaN")
	}
	if v := tab.Average("no-such-column"); !math.IsNaN(v) {
		t.Fatalf("a missing column averaged to %v, want NaN", v)
	}
}
