package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernels"
)

// digestConfigs is the configuration axis of the result-digest table: the
// paper's two designs, its fixed-choice BDI settings, every compression
// backend, both schedulers and
// divergence policies, the rival leakage schemes, fault injection (stuck-at
// banks crash most kernels within a few hundred cycles, so a transient-only
// entry runs corrupted kernels to completion) with and without
// redirection, the write characterization, the L1 ablation, the smallest
// legal memory pipe, slow bank wakeups (alone and overlapping drowsy
// accounting), multi-cycle epochs (alone, and on two SMs holding one CTA
// each, so that CTAs keep arriving at epoch boundaries on SMs that went
// idle inside the epoch — no Small grid outlasts one dispatch round on 15
// SMs) and sharding. Together they reach every wait state of the timing
// pipeline.
var digestConfigs = []struct {
	name string
	mut  func(c *Config)
}{
	{"default", func(c *Config) {}},
	{"baseline", func(c *Config) { *c = BaselineConfig() }},
	{"bdi-40", func(c *Config) { c.Compression = "bdi-40" }},
	{"bdi-41", func(c *Config) { c.Compression = "bdi-41" }},
	{"bdi-42", func(c *Config) { c.Compression = "bdi-42" }},
	{"fpc", func(c *Config) { c.Compression = "fpc" }},
	{"static", func(c *Config) { c.Compression = "static" }},
	{"lrr", func(c *Config) { c.Scheduler = "lrr" }},
	{"recompress", func(c *Config) { c.DivergencePolicy = "recompress" }},
	{"rfc4", func(c *Config) { *c = BaselineConfig(); c.RFCEntries = 4 }},
	{"drowsy100", func(c *Config) { c.DrowsyAfter = 100 }},
	{"drowsy7-nogate", func(c *Config) { c.DrowsyAfter = 7; c.PowerGating = false }},
	{"drowsy20-wakeup40", func(c *Config) { c.DrowsyAfter = 20; c.BankWakeupLatency = 40 }},
	{"faults", func(c *Config) { c.Faults = faults.Config{Seed: 7, StuckAtBanks: 2, TransientPerM: 20_000} }},
	{"transient", func(c *Config) { c.Faults = faults.Config{Seed: 3, TransientPerM: 200} }},
	{"rrcd", func(c *Config) { c.Faults = faults.Config{Seed: 11, StuckAtBanks: 2, Redirect: true} }},
	{"characterize", func(c *Config) { c.CharacterizeWrites = true }},
	{"l1off", func(c *Config) { c.L1SizeKB = 0 }},
	{"inflight32", func(c *Config) { c.GlobalMaxInflight = 32 }},
	{"wakeup40", func(c *Config) { c.BankWakeupLatency = 40 }},
	{"epoch4", func(c *Config) { c.SMEpoch = 4 }},
	{"sm2-cta1-epoch4", func(c *Config) { c.NumSMs = 2; c.MaxCTAsPerSM = 1; c.SMEpoch = 4 }},
	{"shard2", func(c *Config) { c.SMParallel = 2 }},
}

// digestMaxCycles bounds every table run. Fault injection can corrupt a
// loop bound; such a run must end in ErrMaxCycles quickly, and that
// outcome is pinned like any other.
const digestMaxCycles = 4_000_000

// digestEntry runs one (benchmark, config) cell at Small scale and returns
// its table line: the SHA-256 of the warped.sim.result/v1 document (or of
// the run error) and the host-reference Check outcome.
func digestEntry(b *kernels.Benchmark, cname string, mut func(c *Config)) (string, error) {
	c := DefaultConfig()
	mut(&c)
	c.MaxCycles = digestMaxCycles
	g, err := New(c)
	if err != nil {
		return "", err
	}
	inst, err := b.Build(g.Mem(), kernels.Small)
	if err != nil {
		return "", err
	}
	var doc []byte
	check := "ok"
	res, err := g.Run(inst.Launch)
	if err != nil {
		doc, check = []byte(err.Error()), "run-error"
	} else {
		if doc, err = json.Marshal(res); err != nil {
			return "", err
		}
		if inst.Check(g.Mem()) != nil {
			check = "check-failed"
		}
	}
	sum := sha256.Sum256(doc)
	return fmt.Sprintf("%s %s %s %s", b.Name, cname, hex.EncodeToString(sum[:]), check), nil
}

// TestResultDigestTable is the byte-identity oracle over the whole
// workload suite: every benchmark at Small scale under every digestConfigs
// entry must reproduce the result-document digest and Check outcome pinned
// in testdata/result_digests.txt. Timing-model optimizations must leave
// every line untouched; a deliberate model change regenerates the table
// with `go test ./internal/sim -run DigestTable -update`.
func TestResultDigestTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite x configuration table; skipped in -short")
	}
	benches := kernels.All()
	lines := make([]string, len(benches)*len(digestConfigs))
	errs := make([]error, len(lines))
	// Two cells at a time: the table is CPU-bound and each cell is an
	// independent GPU, so a small fan-out halves the wall time without
	// multiplying peak memory.
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for bi, b := range benches {
		for ci, dc := range digestConfigs {
			i := bi*len(digestConfigs) + ci
			wg.Add(1)
			sem <- struct{}{}
			go func(b *kernels.Benchmark, name string, mut func(c *Config)) {
				defer func() { <-sem; wg.Done() }()
				lines[i], errs[i] = digestEntry(b, name, mut)
			}(b, dc.name, dc.mut)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", benches[i/len(digestConfigs)].Name, digestConfigs[i%len(digestConfigs)].name, err)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "result_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Errorf("digest table has %d entries, the suite produces %d (run with -update if the suite changed)", len(want), len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		key := fields[0] + " " + fields[1]
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no pinned digest", key)
		} else if w != line {
			t.Errorf("%s drifted:\n got: %s\nwant: %s", key, line, w)
		}
	}
}
