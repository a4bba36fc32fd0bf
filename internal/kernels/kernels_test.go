package kernels

import (
	"testing"

	"repro/internal/sim"
)

// runAndCheck builds a benchmark at Small scale, runs it under cfg and
// validates the output against the host reference.
func runAndCheck(t *testing.T, name string, cfg sim.Config) *sim.Result {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	inst, err := b.Build(g.Mem(), Small)
	if err != nil {
		t.Fatalf("%s.Build: %v", name, err)
	}
	res, err := g.Run(inst.Launch)
	if err != nil {
		t.Fatalf("%s.Run: %v", name, err)
	}
	if err := inst.Check(g.Mem()); err != nil {
		t.Fatalf("%s output wrong: %v", name, err)
	}
	return res
}

func testCfg(compression string) sim.Config {
	c := sim.DefaultConfig()
	c.NumSMs = 4
	c.Compression = compression
	c.PowerGating = compression != "off"
	c.MaxCycles = 20_000_000
	return c
}

// TestAllBenchmarksCorrect runs every registered benchmark with compression
// on and off, both schedulers — the architectural results must always match
// the host reference.
func TestAllBenchmarksCorrect(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name+"/warped", func(t *testing.T) {
			runAndCheck(t, b.Name, testCfg("bdi"))
		})
		t.Run(b.Name+"/baseline", func(t *testing.T) {
			runAndCheck(t, b.Name, testCfg("off"))
		})
		t.Run(b.Name+"/lrr", func(t *testing.T) {
			c := testCfg("bdi")
			c.Scheduler = "lrr"
			runAndCheck(t, b.Name, c)
		})
		t.Run(b.Name+"/recompress", func(t *testing.T) {
			c := testCfg("bdi")
			c.DivergencePolicy = "recompress"
			runAndCheck(t, b.Name, c)
		})
		t.Run(b.Name+"/rfc", func(t *testing.T) {
			c := testCfg("off")
			c.RFCEntries = 6
			runAndCheck(t, b.Name, c)
		})
	}
}

// TestParseScaleRoundTrip: ParseScale inverts Scale.String and rejects
// anything else.
func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Large} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "Small", "huge"} {
		if _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted", bad)
		}
	}
}

// TestBenchmarkRegistry sanity-checks registration metadata.
func TestBenchmarkRegistry(t *testing.T) {
	all := All()
	if len(all) < 14 {
		t.Fatalf("expected at least 14 benchmarks, have %d", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if b.Name == "" || b.Suite == "" || b.Description == "" || b.Build == nil {
			t.Fatalf("incomplete benchmark registration: %+v", b)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
	for _, want := range []string{"pathfinder", "bfs", "aes", "lib", "spmv"} {
		if !seen[want] {
			t.Fatalf("paper benchmark %q missing", want)
		}
	}
}

// TestDeterminism: two runs of the same benchmark under the same
// configuration must produce byte-identical statistics — the experiment
// harness depends on exact reproducibility.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"bfs", "pathfinder", "histo"} {
		a := runAndCheck(t, name, testCfg("bdi"))
		b := runAndCheck(t, name, testCfg("bdi"))
		if a.Cycles != b.Cycles {
			t.Fatalf("%s: cycles differ across runs: %d vs %d", name, a.Cycles, b.Cycles)
		}
		if a.Stats != b.Stats {
			t.Fatalf("%s: statistics differ across identical runs", name)
		}
	}
}
