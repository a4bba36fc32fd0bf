package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/version"
)

// options are the knobs of one benchmark run.
type options struct {
	seed    int64
	seconds float64 // measurement window
	trace   bool    // record spans and report the per-layer metrics
	dir     string  // span files and scratch state
	quick   bool    // shortened workloads, for the package test
}

// setupReps is how many times a run stands its workload up before the
// measurement window; setup_s is the median.
const setupReps = 9

// A workload is one set of inputs the benchmark drives through the stack.
type workload interface {
	// setup stands the system under test up, generates the workload's
	// inputs and tears everything down again: what a user pays before the
	// first answer.
	setup(ctx context.Context) error
	// pass runs the workload once. rec is nil in untraced passes.
	pass(ctx context.Context, t *tally, rec *recorder) error
	// check runs after the measurement window. It compares the outputs
	// with an independent reference and returns the canonical results.
	check(ctx context.Context, t *tally, rec *recorder) ([]namedResult, error)
	// probe names what the traced run's layer probe exercises.
	probe() probeSpec
	// parallelism reports the SM shard count of each simulation and how
	// many simulations run at once.
	parallelism() (smShards, simulations int)
}

var workloads = []struct {
	name string
	make func(options) (workload, error)
}{
	{"stall-execute", newStallExecute},
	{"dense-exhibits", newDenseExhibits},
	{"serve-campaign", newServeCampaign},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// namedResult is one canonical simulation output of a workload.
type namedResult struct {
	name string
	cfg  sim.Config
	res  *sim.Result
}

// passStat is one measured pass.
type passStat struct {
	traced    bool
	wall      time.Duration
	insts     uint64         // simulated warp instructions
	benches   map[string]int // simulated jobs by benchmark, for workloads that learn insts only at check
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
}

// run executes one benchmark run of the named workload and prints its
// report to stdout; the last line is the JSON result.
func run(ctx context.Context, name string, o options, stdout io.Writer) error {
	var w workload
	for _, c := range workloads {
		if c.name == name {
			var err error
			if w, err = c.make(o); err != nil {
				return err
			}
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	t := &tally{}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	passes, err := measure(ctx, w, o, t, rec)
	if err != nil {
		return err
	}
	results, err := w.check(ctx, t, rec)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	insts := map[string]uint64{}
	for _, r := range results {
		insts[r.name] = r.res.Stats.Instructions
	}
	for i := range passes {
		for b, n := range passes[i].benches {
			passes[i].insts += uint64(n) * insts[b]
		}
	}
	ps := w.probe()
	if o.trace {
		if err := probe(ctx, o, ps, t, rec); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}

	sum, err := digest(results)
	if err != nil {
		return err
	}
	shards, sims := w.parallelism()
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%g trace=%t\n", name, o.seed, o.seconds, o.trace)
	fmt.Fprintln(stdout, environment(shards, sims))
	fmt.Fprintf(stdout, "outputs sha256=%s results=%d schema=%s\n", sum, len(results), sim.ResultSchema)

	var defs []metricDef
	var vals map[string]value
	if o.trace {
		defs, vals = perLayer, layerValues(rec, passes, results, min(ps.cfg.SMParallel, ps.cfg.NumSMs), t)
		path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %s n=%d\n", path, len(rec.spans))
	} else {
		defs, vals = append([]metricDef(nil), endToEnd...), endToEndValues(setups, passes, t)
		// The detail the JSON line leaves out: correctness, serving latency
		// by phase, and the modelled counts, which must repeat exactly
		// from run to run.
		defs = append(defs, metricDef{"fail_frac", "ratio", "lower"})
		vals["fail_frac"] = value{ratio(float64(t.failed), float64(t.attempted)), t.attempted}
		for _, ph := range []string{"cold", "warm", "restart"} {
			if xs := t.phases[ph]; len(xs) > 0 {
				for _, q := range []float64{50, 90} {
					n := fmt.Sprintf("job_%s_p%g_ms", ph, q)
					defs = append(defs, metricDef{n, "ms", "lower"})
					vals[n] = value{quantile(xs, q/100), len(xs)}
				}
			}
		}
		counts := modelled(results)
		for _, d := range perLayer {
			if x, ok := counts[d.name]; ok {
				defs = append(defs, d)
				vals[d.name] = value{x, len(results)}
			}
		}
	}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(stdout, "metric %s %s %s n=%d\n", d.name, strconv.FormatFloat(v.v, 'g', -1, 64), d.unit, v.n)
	}
	for _, f := range t.failures {
		fmt.Fprintln(stdout, "failure", f)
	}
	return printResult(stdout, t, vals, o.trace)
}

// measure runs passes until the window has elapsed. A traced run alternates
// untraced and traced passes, so it can report what tracing costs; its
// first pass, untraced, warms the process up and is left out of that.
func measure(ctx context.Context, w workload, o options, t *tally, rec *recorder) ([]passStat, error) {
	minPasses := 1
	if o.trace {
		minPasses = 3
	}
	var passes []passStat
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < o.seconds; i++ {
		traced := o.trace && i%2 == 1
		var prec *recorder
		if traced {
			prec = rec
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t.beginPass()
		p0 := time.Now()
		err := w.pass(ctx, t, prec)
		wall := time.Since(p0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		insts, benches := t.endPass()
		passes = append(passes, passStat{
			traced:    traced,
			wall:      wall,
			insts:     insts,
			benches:   benches,
			allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
			gcCycles:  float64(m1.NumGC - m0.NumGC),
			gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		})
	}
	return passes, nil
}

// tally collects a run's end-to-end samples and correctness checks.
// Workloads report from several goroutines, so every method locks.
type tally struct {
	mu        sync.Mutex
	jobsMS    []float64            // latency of each unit job
	phases    map[string][]float64 // campaign job latency by phase, ms
	attempted int
	failed    int
	failures  []string
	insts     uint64         // simulated warp instructions, current pass
	benches   map[string]int // simulated jobs by benchmark, current pass
}

func (t *tally) job(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobsMS = append(t.jobsMS, float64(d)/1e6)
}

func (t *tally) phase(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.phases == nil {
		t.phases = map[string][]float64{}
	}
	t.phases[name] = append(t.phases[name], float64(d)/1e6)
}

// op counts one checked operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// merge adds another tally's checked operations.
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

func (t *tally) simulated(insts uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insts += insts
}

func (t *tally) simulatedBench(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.benches == nil {
		t.benches = map[string]int{}
	}
	t.benches[name]++
}

func (t *tally) beginPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insts, t.benches = 0, nil
}

func (t *tally) endPass() (uint64, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insts, t.benches
}

// shuffled returns xs permuted by the workload seed; salt keeps the
// permutations of different lists independent. Only the order work is
// issued in depends on the seed: every kernel's inputs are fixed inside
// internal/kernels (Build takes no seed).
func shuffled[T any](xs []T, seed, salt int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed*7919+salt)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func lookup(names []string) ([]*kernels.Benchmark, error) {
	out := make([]*kernels.Benchmark, len(names))
	for i, n := range names {
		b, ok := kernels.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		out[i] = b
	}
	return out, nil
}

// build generates b's inputs on a fresh GPU, as every job does first.
func build(b *kernels.Benchmark, cfg sim.Config, scale kernels.Scale) error {
	g, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if _, err := b.Build(g.Mem(), scale); err != nil {
		return fmt.Errorf("%s: build: %w", b.Name, err)
	}
	return nil
}

// sameResult fails unless a and b serialize to the same
// warped.sim.result/v1 bytes.
func sameResult(a, b *sim.Result, what string) error {
	x, err := json.Marshal(a)
	if err != nil {
		return err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if string(x) != string(y) {
		return fmt.Errorf("%s: results differ", what)
	}
	return nil
}

func sortResults(rs []namedResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].name < rs[j].name })
}

// digest hashes the warped.sim.result/v1 bytes of every canonical result in
// name order, so a change to any simulated answer changes it.
func digest(results []namedResult) (string, error) {
	h := sha256.New()
	for _, r := range results {
		data, err := json.Marshal(r.res)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%s\n", r.name, data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// environment records what the numbers were measured on.
func environment(shards, sims int) string {
	commit := version.Get("e2ebench").Revision
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d sm_shards=%d sim_parallelism=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), shards, sims, runtime.Version(), cpuModel(), commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line: every end-to-end metric, or in a
// traced run every per-layer metric.
func printResult(w io.Writer, t *tally, vals map[string]value, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v := vals[d.name].v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
