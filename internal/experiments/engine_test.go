package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
)

// mustNew builds a Runner or fails the test (the valid-config happy path).
func mustNew(t *testing.T, ctx context.Context, opts ...Option) *Runner {
	t.Helper()
	r, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fastNewOpts is fastOpts plus extras.
func fastNewOpts(extra ...Option) []Option {
	return append(fastOpts(), extra...)
}

// renderAll regenerates every exhibit and renders each to text,
// concatenated — the byte-level fingerprint of a whole run.
func renderAll(t *testing.T, r *Runner) string {
	t.Helper()
	tables, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		if err := tab.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestParallelMatchesSequential is the determinism contract: a parallel run
// must produce byte-identical figure/table output to a sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	seq := renderAll(t, mustNew(t, context.Background(), fastNewOpts(WithParallelism(1))...))
	par := renderAll(t, mustNew(t, context.Background(), fastNewOpts(WithParallelism(8))...))
	if seq != par {
		t.Fatalf("parallel output differs from sequential output:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("empty output")
	}
}

// TestRecordReplayMatchesExecute is the sweep-level replay oracle: the
// whole exhibit set rendered through the record/replay fast path (the
// default) must be byte-identical to a run forced through full execute
// mode — every benchmark, every configuration, at both parallelism
// extremes.
func TestRecordReplayMatchesExecute(t *testing.T) {
	execRunner := mustNew(t, context.Background(), fastNewOpts(WithParallelism(8))...)
	execRunner.eng.runJob = execRunner.eng.runSim // the job function with RecordReplay off
	exec := renderAll(t, execRunner)
	for _, par := range []int{1, 8} {
		rr := renderAll(t, mustNew(t, context.Background(), fastNewOpts(WithParallelism(par))...))
		if rr != exec {
			t.Fatalf("record/replay output at parallelism %d differs from execute mode:\n--- execute ---\n%s\n--- record/replay ---\n%s", par, exec, rr)
		}
	}
	if len(exec) == 0 {
		t.Fatal("empty output")
	}
}

// TestCancellationMidRun cancels the runner's context from the first
// job-start event and checks the run fails promptly with a wrapped
// context.Canceled.
func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	r := mustNew(t, ctx, fastNewOpts(
		WithParallelism(4),
		WithProgress(func(ev Event) {
			if ev.Kind == EventJobStart {
				once.Do(cancel)
			}
		}))...)
	start := time.Now()
	_, err := r.Run("fig9")
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestPreCanceledRunner never simulates at all.
func TestPreCanceledRunner(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	simulated := false
	r := mustNew(t, ctx, fastNewOpts(WithProgress(func(ev Event) {
		if ev.Kind == EventJobDone && ev.Err == nil {
			simulated = true
		}
	}))...)
	if _, err := r.Run("fig8"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if simulated {
		t.Fatal("simulation completed under a pre-canceled context")
	}
}

// TestSingleFlight hammers the memo cache from many goroutines: each
// (benchmark, config) key must simulate exactly once no matter how many
// concurrent requesters ask for it.
func TestSingleFlight(t *testing.T) {
	// The engine serializes progress callbacks, and all Run calls have
	// returned before the map is read, so no locking is needed.
	started := map[string]int{}
	r := mustNew(t, context.Background(), fastNewOpts(
		WithParallelism(4),
		WithProgress(func(ev Event) {
			if ev.Kind == EventJobStart {
				started[ev.Benchmark+"|"+ev.Config]++
			}
		}))...)

	// fig8 and fig11 both need the warped config on every benchmark;
	// requesting them concurrently exercises the in-flight join path.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i, id := range []string{"fig8", "fig11", "fig12", "fig8"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			_, errs[i] = r.Run(id)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for key, n := range started {
		if n != 1 {
			t.Fatalf("key %q simulated %d times, want exactly 1", key, n)
		}
	}
	if len(started) != 3 { // three benchmarks, one shared warped config
		t.Fatalf("%d keys simulated, want 3 (got %v)", len(started), started)
	}
}

// TestEventStream checks the structured progress contract: every
// simulation produces a start/done pair with cycles and wall time, and a
// re-request of a cached config produces cache-hit events.
func TestEventStream(t *testing.T) {
	var events []Event
	r := mustNew(t, context.Background(), fastNewOpts(
		WithParallelism(2),
		WithProgress(func(ev Event) { events = append(events, ev) }))...)
	if _, err := r.Run("fig8"); err != nil {
		t.Fatal(err)
	}
	starts, dones := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventJobStart:
			starts++
			if ev.Benchmark == "" || ev.Config == "" {
				t.Fatalf("start event missing identity: %+v", ev)
			}
		case EventJobDone:
			dones++
			if ev.Err != nil {
				t.Fatalf("job failed: %v", ev.Err)
			}
			if ev.Cycles == 0 {
				t.Fatalf("done event missing cycles: %+v", ev)
			}
			if ev.Elapsed <= 0 {
				t.Fatalf("done event missing wall time: %+v", ev)
			}
		}
	}
	if starts != 3 || dones != 3 {
		t.Fatalf("starts=%d dones=%d, want 3/3", starts, dones)
	}

	before := len(events)
	if _, err := r.Run("fig11"); err != nil { // same warped config: all hits
		t.Fatal(err)
	}
	hits := 0
	for _, ev := range events[before:] {
		if ev.Kind != EventCacheHit {
			t.Fatalf("expected only cache hits after warm cache, got %v", ev.Kind)
		}
		if ev.Cycles == 0 {
			t.Fatalf("cache-hit event missing cycles: %+v", ev)
		}
		hits++
	}
	if hits != 3 {
		t.Fatalf("%d cache hits, want 3", hits)
	}
}

// TestEventKindString covers the debug names.
func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EventJobStart:  "start",
		EventJobDone:   "done",
		EventCacheHit:  "cache-hit",
		EventKind(042): "EventKind(34)",
	} {
		if got := kind.String(); got != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

// TestWithBenchmarksReset checks the documented no-argument reset.
func TestWithBenchmarksReset(t *testing.T) {
	r := mustNew(t, context.Background(), WithBenchmarks("bfs"), WithBenchmarks())
	benches, err := r.benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != len(kernels.All()) {
		t.Fatalf("%d benchmarks after reset, want full suite (%d)", len(benches), len(kernels.All()))
	}
}

// TestDefaultParallelism: 0 and negative resolve to GOMAXPROCS.
func TestDefaultParallelism(t *testing.T) {
	if p := mustNew(t, context.Background()).Parallelism(); p < 1 {
		t.Fatalf("default parallelism %d", p)
	}
	if p := mustNew(t, context.Background(), WithParallelism(-3)).Parallelism(); p < 1 {
		t.Fatalf("negative parallelism resolved to %d", p)
	}
}
