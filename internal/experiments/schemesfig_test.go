package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestSchemesExhibits runs the cmp1-schemes family on the fast suite and
// checks shape and sanity: one column per registered scheme, every ratio
// >= 1 (no scheme can expand writes — every class uses at most the
// uncompressed bank count), and normalized energy/cycles in plausible
// ranges.
func TestSchemesExhibits(t *testing.T) {
	r := fastRunner(t)
	schemes := core.Schemes()

	ratio, err := r.Run("cmp1-schemes-ratio")
	if err != nil {
		t.Fatal(err)
	}
	if len(ratio.Columns) != len(schemes) {
		t.Fatalf("ratio columns = %v, want one per scheme %v", ratio.Columns, schemes)
	}
	for i, s := range schemes {
		if ratio.Columns[i] != s {
			t.Fatalf("ratio column %d = %q, want %q", i, ratio.Columns[i], s)
		}
	}
	for _, row := range ratio.Rows {
		for i, v := range row.Values {
			if v < 1-1e-9 || v > 16 {
				t.Errorf("%s/%s: compression ratio %v out of range", row.Label, schemes[i], v)
			}
		}
	}

	en, err := r.Run("cmp1-schemes-energy")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range en.Rows {
		for i, v := range row.Values {
			if v <= 0 || v > 1.5 {
				t.Errorf("%s/%s: normalized energy %v out of range", row.Label, schemes[i], v)
			}
		}
	}

	ov, err := r.Run("cmp1-schemes-overhead")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ov.Rows {
		for i, v := range row.Values {
			if v < 0.9 || v > 2.0 {
				t.Errorf("%s/%s: normalized cycles %v out of range", row.Label, schemes[i], v)
			}
		}
	}
}

// schemeResults simulates the fast suite under one scheme and returns the
// per-benchmark warped.sim.result/v1 bytes.
func schemeResults(t *testing.T, r *Runner, name string) map[string][]byte {
	t.Helper()
	benches, err := r.benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	if err := r.forEach(benches, r.config(scheme(name)), func(b *kernels.Benchmark, res *sim.Result) error {
		bts, err := json.Marshal(res)
		if err != nil {
			return err
		}
		out[b.Name] = bts
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSchemesBackToBack runs two schemes through one engine in both orders:
// each scheme's results must be byte-identical regardless of which scheme
// ran (and recorded the shared trace) first. This is the regression guard
// for cross-scheme contamination through the record/replay trace cache, the
// memo cache and the per-warp encoding memo.
func TestSchemesBackToBack(t *testing.T) {
	r1 := fastRunner(t)
	bdi1 := schemeResults(t, r1, "bdi")
	fpc1 := schemeResults(t, r1, "fpc")

	r2 := fastRunner(t)
	fpc2 := schemeResults(t, r2, "fpc")
	bdi2 := schemeResults(t, r2, "bdi")

	for name, want := range bdi1 {
		if !bytes.Equal(want, bdi2[name]) {
			t.Errorf("%s: bdi result depends on scheme run order", name)
		}
	}
	for name, want := range fpc1 {
		if !bytes.Equal(want, fpc2[name]) {
			t.Errorf("%s: fpc result depends on scheme run order", name)
		}
	}
}
