package sweep_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

func mustParse(t *testing.T, doc string) *sweep.Spec {
	t.Helper()
	s, err := sweep.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func jobNames(jobs []sweep.Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name + "/" + j.Benchmark
	}
	return out
}

// TestGridExpansionOrder pins the deterministic expansion contract the
// cluster report's byte-stability builds on: explicit configs in spec
// order, then grid points with axes sorted and the rightmost varying
// fastest, each crossed config-major with the benchmarks.
func TestGridExpansionOrder(t *testing.T) {
	s := mustParse(t, `{
		"name": "order",
		"benchmarks": ["bfs", "pathfinder"],
		"base": {"NumSMs": 2},
		"configs": [{"name": "stock"}],
		"grid": {
			"DecompressLatency": [1, 2],
			"CompressLatency": [4, 8]
		}
	}`)
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"stock/bfs", "stock/pathfinder",
		"CompressLatency=4,DecompressLatency=1/bfs", "CompressLatency=4,DecompressLatency=1/pathfinder",
		"CompressLatency=4,DecompressLatency=2/bfs", "CompressLatency=4,DecompressLatency=2/pathfinder",
		"CompressLatency=8,DecompressLatency=1/bfs", "CompressLatency=8,DecompressLatency=1/pathfinder",
		"CompressLatency=8,DecompressLatency=2/bfs", "CompressLatency=8,DecompressLatency=2/pathfinder",
	}
	got := jobNames(jobs)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("expansion order:\n got %v\nwant %v", got, want)
	}
	// The overrides really landed.
	if jobs[2].Config.CompressLatency != 4 || jobs[2].Config.DecompressLatency != 1 {
		t.Fatalf("grid point config = %+v", jobs[2].Config)
	}
	if jobs[0].Config.NumSMs != 2 {
		t.Fatalf("base override lost: NumSMs = %d, want 2", jobs[0].Config.NumSMs)
	}
}

// TestPresets: "baseline" seeds from BaselineConfig, the default from the
// paper's warped configuration, and a spec with no configs or grid is the
// preset itself.
func TestPresets(t *testing.T) {
	s := mustParse(t, `{"name": "p", "benchmarks": ["bfs"], "preset": "baseline"}`)
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "baseline" {
		t.Fatalf("jobs = %v, want one job named baseline", jobNames(jobs))
	}
	if want := sim.BaselineConfig(); jobs[0].Config != want {
		t.Fatalf("baseline preset config differs from sim.BaselineConfig")
	}

	s = mustParse(t, `{"name": "p", "benchmarks": ["bfs"]}`)
	jobs, err = s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "warped" || jobs[0].Config != sim.DefaultConfig() {
		t.Fatalf("default preset = %v (%+v)", jobNames(jobs), jobs[0].Config)
	}
}

// TestSpecValidation enumerates the rejection paths: every bad spec must
// fail Parse with a SpecError naming the offending part.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		doc  string
		want string // substring of the error
	}{
		{`{"benchmarks": ["bfs"]}`, "name"},
		{`{"name": "x"}`, "benchmark"},
		{`{"name": "x", "benchmarks": ["no-such-kernel"]}`, "unknown benchmark"},
		{`{"name": "x", "benchmarks": ["bfs", "bfs"]}`, "twice"},
		{`{"name": "x", "benchmarks": ["bfs"], "preset": "turbo"}`, "preset"},
		{`{"name": "x", "benchmarks": ["bfs"], "configs": [{"overrides": {}}]}`, "no name"},
		{`{"name": "x", "benchmarks": ["bfs"], "configs": [{"name": "a"}, {"name": "a"}]}`, "used twice"},
		{`{"name": "x", "benchmarks": ["bfs"], "grid": {"CompressLatency": []}}`, "no values"},
		{`{"name": "x", "benchmarks": ["bfs"], "base": {"NoSuchField": 1}}`, "NoSuchField"},
		{`{"name": "x", "benchmarks": ["bfs"], "base": {"NumSMs": 0}}`, "NumSMs"},
		{`{"name": "x", "benchmarks": ["bfs"], "base": {"Mode": 0}}`, "Mode"},
		{`{"name": "x", "benchmarks": ["bfs"], "base": {"SMEpoch": 4}}`, "SMEpoch"},
		{`{"name": "x", "benchmarks": ["bfs"], "grid": {"Compression": ["bdi", "only40"]}}`, "have off, bdi, bdi-40, bdi-41, bdi-42, fpc, static"},
		{`{"name": "x", "benchmarks": ["bfs"], "typo": true}`, "typo"},
		{`{"name": "x", "benchmarks": ["bfs"], "configs": [{"name": "CompressLatency=1"}], "grid": {"CompressLatency": [1]}}`, "collides"},
	}
	for _, tc := range cases {
		_, err := sweep.Parse([]byte(tc.doc))
		if err == nil {
			t.Errorf("Parse(%s) accepted a bad spec", tc.doc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%s) error = %q, want mention of %q", tc.doc, err, tc.want)
		}
	}
}

// TestLoad round-trips a spec through a file, including the path context
// on errors.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"name": "f", "benchmarks": ["bfs"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := sweep.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "f" {
		t.Fatalf("loaded name %q", s.Name)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"benchmarks": ["bfs"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Load(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("Load error %v, want the file named", err)
	}
	if _, err := sweep.Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Load of a missing file must fail")
	}
}
