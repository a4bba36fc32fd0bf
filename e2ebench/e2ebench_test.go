package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// report is one run's parsed output.
type report struct {
	digest string
	lines  map[string]float64 // "metric" lines by name
	units  map[string]string
	last   struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
}

func runReport(t *testing.T, name string, o options) report {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), name, o, &out); err != nil {
		t.Fatalf("%s (trace=%t): %v", name, o.trace, err)
	}
	r := report{lines: map[string]float64{}, units: map[string]string{}}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		switch {
		case len(f) == 5 && f[0] == "metric":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("bad metric line %q", last)
			}
			r.lines[f[1]], r.units[f[1]] = v, f[3]
		case len(f) > 1 && f[0] == "outputs":
			r.digest = f[1]
		}
	}
	if err := json.Unmarshal([]byte(last), &r.last); err != nil {
		t.Fatalf("last line is not the JSON result: %q: %v", last, err)
	}
	if !r.last.Correct || r.last.Failed != 0 || r.last.Attempted < 1 {
		t.Fatalf("%s (trace=%t): correct=%t failed=%d attempted=%d\n%s", name, o.trace, r.last.Correct, r.last.Failed, r.last.Attempted, out.String())
	}
	return r
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists in this package and
// in BENCHMARK.json identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, package has %s", got, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, package %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, package %+v", i, m, d)
			}
		}
	}
}

// TestWorkloadsShort runs every workload in its shortened form, twice
// untraced and once traced. Every metric must be printed with its unit,
// and the modelled counts and the output digest must be identical across
// all three runs.
func TestWorkloadsShort(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := options{seed: 3, dir: t.TempDir(), quick: true}
			a, b := runReport(t, name, o), runReport(t, name, o)
			o.trace = true
			traced := runReport(t, name, o)

			for _, c := range []struct {
				r    report
				defs []metricDef
			}{{a, endToEnd}, {traced, perLayer}} {
				if len(c.r.last.Metrics) != len(c.defs) {
					t.Errorf("JSON result has %d metrics, want %d", len(c.r.last.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if m, ok := c.r.last.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("JSON result: %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if c.r.units[d.name] != d.unit {
						t.Errorf("metric line %s has unit %q, want %q", d.name, c.r.units[d.name], d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if a.last.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, a.last.Metrics[d.name].Value)
				}
			}

			if a.digest == "" || a.digest != b.digest || a.digest != traced.digest {
				t.Errorf("output digests differ: %q %q %q", a.digest, b.digest, traced.digest)
			}
			counts := modelledNames()
			for _, n := range counts {
				x, y, z := a.lines[n], b.lines[n], traced.last.Metrics[n].Value
				if x != y || x != z {
					t.Errorf("%s: untraced %v and %v, traced %v", n, x, y, z)
				}
			}
			if len(counts) == 0 || a.lines["sim.warp_insts"] == 0 {
				t.Errorf("no modelled counts printed")
			}
		})
	}
}

func modelledNames() []string {
	var out []string
	for n := range modelled(nil) {
		out = append(out, n)
	}
	return out
}
