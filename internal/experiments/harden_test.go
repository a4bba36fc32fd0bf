package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// stallRelease unblocks the zz-stall benchmark at package-test teardown, so
// goroutines the watchdog abandoned exit cleanly instead of leaking into
// the race detector's shutdown checks.
var stallRelease = make(chan struct{})

func TestMain(m *testing.M) {
	code := m.Run()
	close(stallRelease)
	// A tiny grace lets released goroutines finish their sends into
	// buffered channels before the process dies.
	time.Sleep(10 * time.Millisecond)
	os.Exit(code)
}

func init() {
	// Synthetic misbehaving workloads for the robustness tests. The zz-
	// prefix keeps them last in sorted order, so healthy benchmarks always
	// come first in deterministic error selection.
	kernels.Register(&kernels.Benchmark{
		Name:        "zz-panic",
		Suite:       "test",
		Description: "panics during Build",
		Build: func(m *mem.Global, s kernels.Scale) (*kernels.Instance, error) {
			panic("zz-panic: deliberate test panic")
		},
	})
	kernels.Register(&kernels.Benchmark{
		Name:        "zz-stall",
		Suite:       "test",
		Description: "blocks in Build until package teardown",
		Build: func(m *mem.Global, s kernels.Scale) (*kernels.Instance, error) {
			<-stallRelease
			return nil, errors.New("zz-stall: released at teardown")
		},
	})
}

// TestPanicIsolation: a benchmark that panics must fail as a typed error
// carrying the job's identity — and must not take down the process or the
// other jobs.
func TestPanicIsolation(t *testing.T) {
	ran := map[string]bool{}
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs", "zz-panic"),
		WithParallelism(2),
		WithProgress(func(ev Event) {
			if ev.Kind == EventJobDone && ev.Err == nil {
				ran[ev.Benchmark] = true
			}
		}))...)
	_, err := r.Run("fig8")
	if err == nil {
		t.Fatal("panicking benchmark did not fail the exhibit")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %T %v, want *JobError", err, err)
	}
	if je.Benchmark != "zz-panic" || je.Config == "" || je.Attempts != 1 {
		t.Fatalf("JobError identity = %+v", je)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic lost its stack")
	}
	if !strings.Contains(err.Error(), "deliberate test panic") {
		t.Fatalf("panic value lost: %v", err)
	}
	if strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("Error() must not embed the stack (reports stay deterministic): %v", err)
	}
	if !ran["bfs"] {
		t.Fatal("healthy benchmark did not complete alongside the panic")
	}
}

// flakyJob fails with a TransientError until the given attempt succeeds.
func flakyJob(failures int) (*atomic.Int64, func(context.Context, *kernels.Benchmark, sim.Config, *atomic.Uint64) (*sim.Result, error)) {
	var attempts atomic.Int64
	return &attempts, func(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
		n := attempts.Add(1)
		if int(n) <= failures {
			return nil, &TransientError{Err: fmt.Errorf("flaky failure %d", n)}
		}
		return &sim.Result{Cycles: 1}, nil
	}
}

// TestRetryExactCount: a job that fails transiently N-1 times succeeds on
// the Nth attempt, emitting exactly N-1 retry events; a job that keeps
// failing stops after the retry budget with the attempt count recorded.
func TestRetryExactCount(t *testing.T) {
	var retries, starts atomic.Int64
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs"),
		WithParallelism(1),
		WithRetries(3),
		WithRetryBackoff(time.Millisecond),
		WithProgress(func(ev Event) {
			switch ev.Kind {
			case EventJobRetry:
				retries.Add(1)
			case EventJobStart:
				starts.Add(1)
			}
		}))...)
	attempts, job := flakyJob(2)
	r.eng.runJob = job
	b, _ := kernels.ByName("bfs")
	res, err := r.eng.run(b, r.config(warped))
	if err != nil {
		t.Fatalf("flaky job did not recover: %v", err)
	}
	if res == nil || res.Cycles != 1 {
		t.Fatalf("recovered job lost its result: %+v", res)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("job ran %d times, want 3 (2 failures + 1 success)", got)
	}
	if got := retries.Load(); got != 2 {
		t.Fatalf("%d retry events, want 2", got)
	}
	if got := starts.Load(); got != 3 {
		t.Fatalf("%d start events, want 3", got)
	}

	// Exhausted budget: 1 + retries attempts, then a JobError with the count.
	r2 := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs"),
		WithRetries(2),
		WithRetryBackoff(time.Millisecond))...)
	attempts2, job2 := flakyJob(1 << 30)
	r2.eng.runJob = job2
	_, err = r2.eng.run(b, r2.config(warped))
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *JobError", err)
	}
	if je.Attempts != 3 || attempts2.Load() != 3 {
		t.Fatalf("attempts = %d (job ran %d), want 3", je.Attempts, attempts2.Load())
	}
	if !IsTransient(errors.Unwrap(je)) {
		t.Fatalf("exhausted error lost its transient cause: %v", je)
	}
}

// TestNoRetryOnDeterministicFailure: panics and other non-transient errors
// must not burn retry attempts.
func TestNoRetryOnDeterministicFailure(t *testing.T) {
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("zz-panic"),
		WithRetries(5),
		WithRetryBackoff(time.Millisecond))...)
	b, _ := kernels.ByName("zz-panic")
	_, err := r.eng.run(b, r.config(warped))
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *JobError", err)
	}
	if je.Attempts != 1 {
		t.Fatalf("panic was retried: %d attempts", je.Attempts)
	}
}

// TestWatchdogCancelsStalledLoop: a job whose cycle loop stops advancing
// the instruction heartbeat is canceled by the watchdog and fails with a
// typed StallError.
func TestWatchdogCancelsStalledLoop(t *testing.T) {
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs"),
		WithWatchdog(50*time.Millisecond))...)
	// A deliberately stalled cycle loop: burns wall time, polls the
	// context like the real simulator, never issues an instruction.
	r.eng.runJob = func(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
		for {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	b, _ := kernels.ByName("bfs")
	start := time.Now()
	_, err := r.eng.run(b, r.config(warped))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want wrapped *StallError", err)
	}
	if se.Deadline != 50*time.Millisecond {
		t.Fatalf("StallError deadline = %v", se.Deadline)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	if !IsTransient(se) {
		t.Fatal("stalls must be transient (a retry can succeed)")
	}
}

// TestWatchdogSparesProgressingJobs: a slow job that keeps advancing the
// heartbeat must not be killed.
func TestWatchdogSparesProgressingJobs(t *testing.T) {
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs"),
		WithWatchdog(100*time.Millisecond))...)
	r.eng.runJob = func(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
		for i := 0; i < 30; i++ { // ~300ms total, several watchdog windows
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
			beat.Add(1)
		}
		return &sim.Result{Cycles: 2}, nil
	}
	b, _ := kernels.ByName("bfs")
	res, err := r.eng.run(b, r.config(warped))
	if err != nil {
		t.Fatalf("progressing job was killed: %v", err)
	}
	if res.Cycles != 2 {
		t.Fatalf("result lost: %+v", res)
	}
}

// partialFingerprint runs a two-exhibit partial suite containing one
// panicking and one stalling benchmark and returns the full rendered
// output: tables plus failure report.
func partialFingerprint(t *testing.T, parallelism int) string {
	t.Helper()
	// The watchdog window must comfortably exceed a healthy job's longest
	// no-heartbeat stretch (sim construction + input build), or loaded CI
	// machines kill legitimate work.
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs", "lib", "zz-panic", "zz-stall"),
		WithParallelism(parallelism),
		WithWatchdog(2*time.Second))...)
	rep, err := r.RunPartial("fig8", "fig9")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range rep.Tables {
		if err := tab.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	sb.WriteString(rep.Render())
	return sb.String()
}

// TestPartialResultsDeterministic: a suite containing a panicking and a
// stalled job still emits tables for the healthy jobs plus a structured
// failure report — byte-identical at every parallelism level.
func TestPartialResultsDeterministic(t *testing.T) {
	seq := partialFingerprint(t, 1)
	par := partialFingerprint(t, 8)
	if seq != par {
		t.Fatalf("partial output differs across parallelism:\n--- p1 ---\n%s\n--- p8 ---\n%s", seq, par)
	}
	for _, want := range []string{"bfs", "lib", "zz-panic", "zz-stall", "failure report", "panic:", "no forward progress"} {
		if !strings.Contains(seq, want) {
			t.Fatalf("partial output missing %q:\n%s", want, seq)
		}
	}
	if strings.Contains(seq, "goroutine") {
		t.Fatalf("failure report embeds a stack trace (nondeterministic):\n%s", seq)
	}
}

// TestPartialReportStructure digs into the Report fields: failed jobs carry
// identity, healthy benchmarks still have rows, and the report round-trips
// the Failed() predicate.
func TestPartialReportStructure(t *testing.T) {
	r := mustNew(t, context.Background(), fastNewOpts(
		WithBenchmarks("bfs", "zz-panic"),
		WithParallelism(2))...)
	rep, err := r.RunPartial("fig8", "fig11")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("report with a panicking job claims success")
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("%d tables, want 2 (both exhibits recover)", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		found := false
		for _, row := range tab.Rows {
			if row.Label == "zz-panic" {
				t.Fatalf("%s still has a row for the failed benchmark", tab.ID)
			}
			if row.Label == "bfs" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s lost its healthy rows", tab.ID)
		}
	}
	if len(rep.Jobs) == 0 {
		t.Fatal("no job failures recorded")
	}
	for _, j := range rep.Jobs {
		if j.Benchmark != "zz-panic" {
			t.Fatalf("unexpected failed job %+v", j)
		}
		if j.Config == "" || j.Err == nil {
			t.Fatalf("job failure missing identity: %+v", j)
		}
	}
	// A clean runner reports success and renders nothing.
	clean := mustNew(t, context.Background(), fastNewOpts(WithBenchmarks("bfs"))...)
	crep, err := clean.RunPartial("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if crep.Failed() || crep.Render() != "" {
		t.Fatalf("clean run reported failures: %+v", crep)
	}
}

// TestPartialGemmFamilyDropsFailedVariant: in partial mode a GEMM variant
// whose baseline job fails costs its own row, not the exhibit. The ladder
// is re-filtered before every scheme pass, so no scheme runs the failed
// variant and no cell reads its missing baseline.
func TestPartialGemmFamilyDropsFailedVariant(t *testing.T) {
	r := mustNew(t, context.Background(), fastNewOpts(WithParallelism(1))...)
	runJob := r.eng.runJob
	r.eng.runJob = func(ctx context.Context, b *kernels.Benchmark, c sim.Config, beat *atomic.Uint64) (*sim.Result, error) {
		if b.Name == "gemm_block" && c.Compression == "off" {
			return nil, errors.New("injected baseline failure")
		}
		return runJob(ctx, b, c, beat)
	}
	rep, err := r.RunPartial("gemm1-tiling-energy")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exhibits) != 0 || len(rep.Tables) != 1 {
		t.Fatalf("%d tables, exhibit failures %v; want the table without gemm_block", len(rep.Tables), rep.Exhibits)
	}
	var labels []string
	for _, row := range rep.Tables[0].Rows {
		labels = append(labels, row.Label)
	}
	if got, want := strings.Join(labels, ","), "gemm_naive,gemm_warp,gemm_reg,AVG"; got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].Benchmark != "gemm_block" {
		t.Fatalf("job failures %+v, want one for gemm_block", rep.Jobs)
	}
}

// TestFirstErrorDeterministicAcrossParallelism: strict mode must surface
// the same (first by benchmark name) failure at every parallelism level,
// not whichever worker loses the race.
func TestFirstErrorDeterministicAcrossParallelism(t *testing.T) {
	errAt := func(p int) string {
		r := mustNew(t, context.Background(), fastNewOpts(
			WithBenchmarks("bfs", "zz-panic", "zz-stall"),
			WithParallelism(p),
			WithWatchdog(2*time.Second))...)
		_, err := r.Run("fig8")
		if err == nil {
			t.Fatal("run with broken benchmarks succeeded")
		}
		return err.Error()
	}
	e1 := errAt(1)
	e8 := errAt(8)
	if e1 != e8 {
		t.Fatalf("first error differs across parallelism:\np1: %s\np8: %s", e1, e8)
	}
	if !strings.Contains(e1, "zz-panic") {
		t.Fatalf("first error should be zz-panic (name order), got: %s", e1)
	}
}

// TestNewValidatesBaseConfig: satellite contract — the constructor rejects
// an invalid base configuration with a typed *sim.ConfigError.
func TestNewValidatesBaseConfig(t *testing.T) {
	bad := sim.DefaultConfig()
	bad.NumSMs = -1
	_, err := New(context.Background(), WithBaseConfig(bad))
	if err == nil {
		t.Fatal("New accepted NumSMs = -1")
	}
	var ce *sim.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want wrapped *sim.ConfigError", err, err)
	}
	if ce.Field != "NumSMs" {
		t.Fatalf("ConfigError.Field = %q", ce.Field)
	}
}
