package kernels

import (
	"testing"

	"repro/internal/stats"
)

// characterRun executes one benchmark at Small scale under the default
// warped configuration and returns the run statistics.
func characterRun(t *testing.T, name string) *stats.Stats {
	t.Helper()
	res := runAndCheck(t, name, testCfg("bdi"))
	return &res.Stats
}

// TestWorkloadCharacter pins the register-value and divergence character
// each benchmark was built to reproduce (paper §3 and Figs 2/3/8). If a
// kernel or input generator changes in a way that erases its character, the
// suite stops being a faithful stand-in for the paper's workloads and these
// tests fail.
func TestWorkloadCharacter(t *testing.T) {
	t.Run("lib is the zero-dynamic-range best case", func(t *testing.T) {
		s := characterRun(t, "lib")
		if nd := s.NonDivergentRatio(); nd != 1 {
			t.Fatalf("lib diverged: %v", nd)
		}
		if cr := s.CompressionRatio(stats.NonDivergent); cr < 6 {
			t.Fatalf("lib compression ratio %.2f, want near the bank cap of 8", cr)
		}
	})

	t.Run("aes never diverges", func(t *testing.T) {
		s := characterRun(t, "aes")
		if s.DivergentInstrs != 0 {
			t.Fatalf("aes diverged %d times; the paper marks its divergent bars N/A", s.DivergentInstrs)
		}
	})

	t.Run("bfs and mum diverge heavily", func(t *testing.T) {
		for _, name := range []string{"bfs", "mum"} {
			s := characterRun(t, name)
			if nd := s.NonDivergentRatio(); nd > 0.98 {
				t.Fatalf("%s barely diverged (%.3f non-divergent)", name, nd)
			}
		}
	})

	t.Run("pathfinder injects dummy MOVs", func(t *testing.T) {
		s := characterRun(t, "pathfinder")
		if s.DummyMovs == 0 {
			t.Fatal("pathfinder's divergent DP updates should hit compressed registers")
		}
		if r := s.DummyMovRatio(); r > 0.05 {
			t.Fatalf("dummy MOV ratio %.3f implausibly high", r)
		}
	})

	t.Run("histo exercises atomics", func(t *testing.T) {
		s := characterRun(t, "histo")
		if s.GlobalTxns == 0 {
			t.Fatal("histo issued no global transactions")
		}
	})

	t.Run("shared-memory kernels use shared memory", func(t *testing.T) {
		for _, name := range []string{"nw", "lud", "lps", "pathfinder"} {
			s := characterRun(t, name)
			if s.SharedAccess == 0 {
				t.Fatalf("%s recorded no shared-memory accesses", name)
			}
		}
	})

	t.Run("every benchmark compresses something", func(t *testing.T) {
		for _, b := range All() {
			s := characterRun(t, b.Name)
			var compressed uint64
			for e := 1; e < stats.NumEncodings; e++ {
				compressed += s.WritesByEnc[stats.NonDivergent][e]
			}
			if compressed == 0 {
				t.Fatalf("%s: no compressed register writes at all", b.Name)
			}
		}
	})

	t.Run("divergent compression ratio never beats non-divergent by much", func(t *testing.T) {
		for _, b := range All() {
			s := characterRun(t, b.Name)
			if s.RegWrites[stats.Divergent] == 0 {
				continue
			}
			nd := s.CompressionRatio(stats.NonDivergent)
			dv := s.CompressionRatio(stats.Divergent)
			if dv > nd*1.5 {
				t.Fatalf("%s: divergent ratio %.2f far above non-divergent %.2f (paper Fig 8 shows the opposite)", b.Name, dv, nd)
			}
		}
	})
}

// TestSuiteAverageShape checks the suite-level aggregates stay in the
// paper's neighbourhood even at Small scale: non-divergent share around
// 0.79, non-divergent compression ratio around 2.5.
func TestSuiteAverageShape(t *testing.T) {
	var ndSum, crSum float64
	n := 0
	for _, b := range All() {
		s := characterRun(t, b.Name)
		ndSum += s.NonDivergentRatio()
		crSum += s.CompressionRatio(stats.NonDivergent)
		n++
	}
	nd, cr := ndSum/float64(n), crSum/float64(n)
	if nd < 0.6 || nd > 0.98 {
		t.Fatalf("suite non-divergent share %.2f outside the paper's neighbourhood (0.79)", nd)
	}
	if cr < 1.5 || cr > 5 {
		t.Fatalf("suite compression ratio %.2f outside the paper's neighbourhood (2.5)", cr)
	}
}
