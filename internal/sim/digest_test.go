package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/exectrace"
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

// digestPath is the pinned result-digest table, one line per
// (benchmark, configuration) cell.
var digestPath = filepath.Join("testdata", "result_digests.txt")

// pinnedDigests reads the pinned table, keyed by "benchmark config".
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestPath)
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
	return want
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

	if *updateGolden {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := pinnedDigests(t)
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

// untraceable names the benchmarks whose value stream depends on the
// schedule, so recording them fails with ErrUntraceable: bfs loads a
// neighbour's level and stores it when it reads -1, racing the other warps
// that claim the same neighbour.
var untraceable = map[string]bool{"bfs": true}

// TestReplayDigestTable is the replay oracle over the whole workload
// suite: every benchmark is recorded once at Small scale under the default
// configuration, and the trace, replayed under every fault-free
// digestConfigs entry, must reproduce the result-document digest pinned
// for execute mode. The Check column does not apply: replay writes no
// device memory. Benchmarks in untraceable must refuse to record, and
// every other benchmark must record.
func TestReplayDigestTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite x configuration table; skipped in -short")
	}
	want := pinnedDigests(t)
	benches := kernels.All()
	failures := make([][]string, len(benches))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for bi, b := range benches {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			failures[bi] = replayDigests(b, want)
		}()
	}
	wg.Wait()
	for _, fs := range failures {
		for _, f := range fs {
			t.Error(f)
		}
	}
}

// replayDigests records one benchmark and replays it under every
// fault-free configuration, returning one message per mismatch.
func replayDigests(b *kernels.Benchmark, want map[string]string) []string {
	c := DefaultConfig()
	c.MaxCycles = digestMaxCycles
	g, err := New(c)
	if err != nil {
		return []string{err.Error()}
	}
	inst, err := b.Build(g.Mem(), kernels.Small)
	if err != nil {
		return []string{fmt.Sprintf("%s: build: %v", b.Name, err)}
	}
	_, lt, err := g.Record(inst.Launch)
	switch {
	case untraceable[b.Name] && errors.Is(err, ErrUntraceable):
		return nil
	case untraceable[b.Name]:
		return []string{fmt.Sprintf("%s: record returned %v, want ErrUntraceable", b.Name, err)}
	case err != nil:
		return []string{fmt.Sprintf("%s: record: %v", b.Name, err)}
	}
	var out []string
	for _, dc := range digestConfigs {
		c := DefaultConfig()
		dc.mut(&c)
		c.MaxCycles = digestMaxCycles
		if c.Faults.Enabled() {
			continue // record and replay refuse fault injection
		}
		key := b.Name + " " + dc.name
		g, err := New(c)
		if err != nil {
			return append(out, fmt.Sprintf("%s: %v", key, err))
		}
		var doc []byte
		if res, err := g.Replay(lt); err != nil {
			doc = []byte(err.Error())
		} else if doc, err = json.Marshal(res); err != nil {
			return append(out, fmt.Sprintf("%s: %v", key, err))
		}
		sum := sha256.Sum256(doc)
		got := hex.EncodeToString(sum[:])
		if fields := strings.Fields(want[key]); len(fields) != 4 || fields[2] != got {
			out = append(out, fmt.Sprintf("%s: replay digest %s, execute pinned %q", key, got, want[key]))
		}
	}
	return out
}

// traceDigestPath pins the warped.trace/v1 bytes of every traceable
// benchmark, one "benchmark sha256" line each.
var traceDigestPath = filepath.Join("testdata", "trace_digests.txt")

// TestRecordedTraceDigests is the wire oracle over the whole workload
// suite: every traceable benchmark, recorded at Small scale under the
// default configuration and serialized with exectrace.Write, must
// reproduce the SHA-256 pinned in testdata/trace_digests.txt. A change to
// how traces are recorded or held in memory must leave every line
// untouched; only a deliberate wire-format change regenerates the table
// with `go test ./internal/sim -run RecordedTraceDigests -update`.
func TestRecordedTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("records the whole suite; skipped in -short")
	}
	var lines []string
	for _, b := range kernels.All() {
		if untraceable[b.Name] {
			continue
		}
		c := DefaultConfig()
		c.MaxCycles = digestMaxCycles
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := b.Build(g.Mem(), kernels.Small)
		if err != nil {
			t.Fatalf("%s: build: %v", b.Name, err)
		}
		_, lt, err := g.Record(inst.Launch)
		if err != nil {
			t.Fatalf("%s: record: %v", b.Name, err)
		}
		var buf bytes.Buffer
		tr := &exectrace.Trace{Meta: exectrace.Meta{Benchmark: b.Name, Scale: kernels.Small.String()}, Launches: []*exectrace.Launch{lt}}
		if err := exectrace.Write(&buf, tr); err != nil {
			t.Fatalf("%s: write: %v", b.Name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		lines = append(lines, b.Name+" "+hex.EncodeToString(sum[:]))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(traceDigestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(traceDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("recorded trace bytes drifted from %s:\n got:\n%s\nwant:\n%s", traceDigestPath, got, want)
	}
}
