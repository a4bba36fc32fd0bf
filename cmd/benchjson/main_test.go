package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBDICompress   	 1000000	        26.62 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimulatorThroughput-8 	     601	   3994904 ns/op	    512153 sim-cycles/s	  418696 B/op	     675 allocs/op
BenchmarkRegfileAccess/clean         	  100000	        40.33 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	2.807s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != Schema {
		t.Fatalf("schema %q", doc.Schema)
	}
	if doc.Pkg != "repro" || !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("metadata not captured: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}

	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkBDICompress" || b.Procs != 1 || b.Iterations != 1000000 {
		t.Fatalf("first benchmark: %+v", b)
	}
	if len(b.Metrics) != 3 || b.Metrics[0].Unit != "ns/op" || b.Metrics[0].Value != 26.62 {
		t.Fatalf("first metrics: %+v", b.Metrics)
	}

	b = doc.Benchmarks[1]
	if b.Name != "BenchmarkSimulatorThroughput" || b.Procs != 8 {
		t.Fatalf("procs suffix not stripped: %+v", b)
	}
	if len(b.Metrics) != 4 || b.Metrics[1].Unit != "sim-cycles/s" || b.Metrics[1].Value != 512153 {
		t.Fatalf("custom metric lost: %+v", b.Metrics)
	}

	if doc.Benchmarks[2].Name != "BenchmarkRegfileAccess/clean" {
		t.Fatalf("sub-benchmark name mangled: %q", doc.Benchmarks[2].Name)
	}
}

// writeDoc stores a warped.bench/v1 document holding one ns/op sample per
// value of each named benchmark.
func writeDoc(t *testing.T, schema string, runs map[string][]float64) string {
	t.Helper()
	doc := Document{Schema: schema}
	for name, vals := range runs {
		for _, v := range vals {
			doc.Benchmarks = append(doc.Benchmarks, Benchmark{Name: name, Procs: 1, Iterations: 1, Metrics: []Metric{{Value: v, Unit: "ns/op"}}})
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompare: a row is marked only when its medians sit more than 20%
// apart and further apart than either side's MAD; only unreadable input
// is an error.
func TestCompare(t *testing.T) {
	old := writeDoc(t, Schema, map[string][]float64{
		"BenchmarkSteady": {100, 101, 99},
		"BenchmarkSlower": {100, 102, 98},
		"BenchmarkNoisy":  {100, 40, 160},
		"BenchmarkGone":   {5},
	})
	cur := writeDoc(t, Schema, map[string][]float64{
		"BenchmarkSteady": {110, 111, 109},
		"BenchmarkSlower": {130, 131, 129},
		"BenchmarkNoisy":  {130, 131, 129},
		"BenchmarkNew":    {7},
	})
	var out strings.Builder
	if err := compare(&out, old, cur); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") {
			rows[f[0]] = line
		}
	}
	for name, marked := range map[string]bool{"BenchmarkSteady": false, "BenchmarkSlower": true, "BenchmarkNoisy": false} {
		line, ok := rows[name]
		if !ok {
			t.Fatalf("no row for %s in:\n%s", name, out.String())
		}
		if got := strings.HasSuffix(strings.TrimSpace(line), "*"); got != marked {
			t.Errorf("%s marked %v, want %v: %q", name, got, marked, line)
		}
	}
	if !strings.Contains(rows["BenchmarkSlower"], "1.300") {
		t.Errorf("ratio of medians missing: %q", rows["BenchmarkSlower"])
	}
	if _, ok := rows["BenchmarkGone"]; ok {
		t.Errorf("a benchmark only the old document holds got a row")
	}
	if !strings.Contains(out.String(), "3 pairs in both documents, 1 marked") {
		t.Errorf("summary line missing:\n%s", out.String())
	}

	if err := compare(io.Discard, old, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing document compared without error")
	}
	if err := compare(io.Discard, writeDoc(t, "warped.bench/v0", nil), cur); err == nil {
		t.Error("a document of another schema compared without error")
	}
}
