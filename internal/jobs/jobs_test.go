package jobs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// holdGate lets tests hold the zz-hold benchmark in flight: Build blocks
// until the currently installed channel is closed. The default channel is
// closed, so tests that don't gate pass straight through.
var holdGate atomic.Value // of chan struct{}

func init() {
	closed := make(chan struct{})
	close(closed)
	holdGate.Store(closed)
	kernels.Register(&kernels.Benchmark{
		Name:        "zz-hold",
		Suite:       "test",
		Description: "blocks in Build until the test releases it",
		Build: func(m *mem.Global, s kernels.Scale) (*kernels.Instance, error) {
			<-holdGate.Load().(chan struct{})
			k, err := asm.Assemble("zz-hold", "\tmov r0, %tid.x\n\texit\n")
			if err != nil {
				return nil, err
			}
			return &kernels.Instance{
				Launch: isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}},
				Check:  func(*mem.Global) error { return nil },
			}, nil
		},
	})
}

// gate installs a fresh open gate and returns its release function, which
// is safe to call more than once.
func gate(t *testing.T) func() {
	t.Helper()
	ch := make(chan struct{})
	holdGate.Store(ch)
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return release
}

// testConfig is a small, fast hardware configuration.
func testConfig() sim.Config {
	c := sim.DefaultConfig()
	c.NumSMs = 2
	return c
}

// waitDone blocks until the job finishes, via its event stream.
func waitDone(t *testing.T, j *jobs.Job) *sim.Result {
	t.Helper()
	_, ch, cancel := j.SubscribeFrom(-1)
	defer cancel()
	if ch != nil {
		timeout := time.After(60 * time.Second)
		for {
			select {
			case _, ok := <-ch:
				if !ok {
					goto finished
				}
			case <-timeout:
				t.Fatalf("job %s did not finish: state %s", j.ID, j.State())
			}
		}
	}
finished:
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job %s failed: %v", j.ID, err)
	}
	return res
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, j *jobs.Job, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

func newManager(t *testing.T, cfg jobs.Config) *jobs.Manager {
	t.Helper()
	m := jobs.NewManager(context.Background(), cfg)
	t.Cleanup(m.Close)
	return m
}

// TestSubmitFillsSMParallel: Config.SMParallel becomes the shard count of
// every submission that leaves its own at 0, visibly on Job.Config; an
// explicit shard count stands.
func TestSubmitFillsSMParallel(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, SMParallel: 3, QueueDepth: 8, CacheSize: 8})
	for _, tc := range []struct{ submitted, want int }{{0, 3}, {2, 2}} {
		cfg := testConfig()
		cfg.SMParallel = tc.submitted
		j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if j.Config.SMParallel != tc.want {
			t.Errorf("submitted SMParallel %d: job runs with %d, want %d", tc.submitted, j.Config.SMParallel, tc.want)
		}
		waitDone(t, j)
	}
}

// TestSubmitRoundTrip: submit → run → done, with the lifecycle event
// stream in order and a well-formed view.
func TestSubmitRoundTrip(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j)
	if res == nil || res.Cycles == 0 {
		t.Fatalf("no result: %+v", res)
	}
	v := j.View()
	if v.State != jobs.StateDone || v.Result == nil || v.Error != "" {
		t.Fatalf("view = %+v", v)
	}
	if v.Started == nil || v.Finished == nil {
		t.Fatalf("missing timestamps: %+v", v)
	}
	replay, ch, _ := j.SubscribeFrom(-1)
	if ch != nil {
		t.Fatal("finished job returned a live channel")
	}
	kinds := make([]string, len(replay))
	for i, ev := range replay {
		kinds[i] = ev.Kind
	}
	want := []string{"queued", "running", "sim-start", "sim-done", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event stream %v, want %v", kinds, want)
	}
}

// TestSingleFlightAndCacheHit is the end-to-end acceptance scenario: two
// concurrent submissions of the identical config produce ONE underlying
// simulation, and a third submission afterwards is served from the LRU
// cache without touching the queue.
func TestSingleFlightAndCacheHit(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{Workers: 4, QueueDepth: 8, CacheSize: 8})
	cfg := testConfig()

	j1, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, jobs.StateRunning) // in flight, held at the gate
	j2, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, jobs.StateRunning)
	// j2's worker needs a moment to reach the engine and join j1's
	// in-flight call before the gate opens.
	time.Sleep(300 * time.Millisecond)
	release()

	r1, r2 := waitDone(t, j1), waitDone(t, j2)
	if r1.Cycles != r2.Cycles {
		t.Fatalf("coalesced jobs disagree: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
	st := m.Stats()
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (single-flight dedup)", st.Coalesced)
	}
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}

	// Third submission: identical signature, served from the result cache.
	j3, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	v := j3.View()
	if v.State != jobs.StateDone || !v.Cached {
		t.Fatalf("third submission not a cache hit: %+v", v)
	}
	if v.Result.Cycles != r1.Cycles {
		t.Fatalf("cached result differs: %d vs %d", v.Result.Cycles, r1.Cycles)
	}
	if st := m.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
	if len(j3.View().Result.Stats.BDIChoices) == 0 && j3.View().Result.Cycles == 0 {
		t.Fatal("cached job lost its result")
	}
}

// TestQueueFullRejection: admission control — a full FIFO rejects with
// ErrQueueFull instead of blocking the caller.
func TestQueueFullRejection(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 1, CacheSize: 0})
	// Distinct configs so nothing coalesces or cache-hits.
	cfgAt := func(lat int) sim.Config {
		c := testConfig()
		c.CompressLatency = lat
		return c
	}
	j1, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgAt(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, jobs.StateRunning) // occupies the only worker
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgAt(2)}); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	_, err = m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgAt(3)})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	release()
}

// TestGracefulDrain is the drain acceptance scenario: in-flight jobs
// finish, the manager reports draining (readyz flips 503 upstream), and
// new submissions are rejected with ErrDraining.
func TestGracefulDrain(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, jobs.StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	// Drain must flip the draining flag promptly, while the job holds.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never flipped Draining()")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()}); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	release() // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res := waitDone(t, j); res == nil {
		t.Fatal("in-flight job lost during drain")
	}
	if j.State() != jobs.StateDone {
		t.Fatalf("job state after drain = %s, want done", j.State())
	}
}

// TestDrainDeadline: a drain whose context expires reports the in-flight
// work instead of hanging forever.
func TestDrainDeadline(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, jobs.StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}
	release()
}

// TestBadSubmissions: typed admission errors for unknown benchmarks and
// invalid configurations.
func TestBadSubmissions(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 1})
	var ube *jobs.UnknownBenchmarkError
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "no-such-kernel", Config: testConfig()}); !errors.As(err, &ube) {
		t.Fatalf("err = %v, want *UnknownBenchmarkError", err)
	}
	bad := testConfig()
	bad.NumSMs = -1
	var ce *sim.ConfigError
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: bad}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *sim.ConfigError", err)
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Fatalf("bad submissions were admitted: %+v", st)
	}
}

// TestJobRetention: finished jobs beyond the retention cap are forgotten;
// live jobs are never evicted.
func TestJobRetention(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 2, QueueDepth: 16, CacheSize: 0, RetainJobs: 3})
	var ids []string
	for lat := 1; lat <= 5; lat++ {
		c := testConfig()
		c.CompressLatency = lat
		j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: c})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest finished job survived past the retention cap")
	}
	if _, ok := m.Get(ids[4]); !ok {
		t.Fatal("newest job was evicted")
	}
	if got := len(m.Jobs()); got != 3 {
		t.Fatalf("%d retained jobs, want 3", got)
	}
}

// TestConcurrentClients hammers one manager from 12 clients × 5 jobs over
// three distinct configurations — the race-detector workout the ROADMAP
// demands, plus determinism: every result for one signature is identical.
func TestConcurrentClients(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 8, QueueDepth: 256, CacheSize: 64})
	const clients, perClient = 12, 5
	cycles := make([]map[string]uint64, clients) // per-client: signature → cycles
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cycles[i] = make(map[string]uint64)
			for n := 0; n < perClient; n++ {
				c := testConfig()
				c.CompressLatency = 1 + (i+n)%3
				j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: c})
				if err != nil {
					errs[i] = err
					return
				}
				_, ch, cancel := j.SubscribeFrom(-1)
				if ch != nil {
					for range ch {
					}
				}
				cancel()
				res, err := j.Result()
				if err != nil {
					errs[i] = err
					return
				}
				if prev, ok := cycles[i][j.Signature]; ok && prev != res.Cycles {
					errs[i] = fmt.Errorf("signature %s: cycles %d then %d", j.Signature, prev, res.Cycles)
					return
				}
				cycles[i][j.Signature] = res.Cycles
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Cross-client determinism.
	all := make(map[string]uint64)
	for i := range cycles {
		for sig, cyc := range cycles[i] {
			if prev, ok := all[sig]; ok && prev != cyc {
				t.Fatalf("signature %s: %d vs %d cycles across clients", sig, prev, cyc)
			}
			all[sig] = cyc
		}
	}
	if len(all) != 3 {
		t.Fatalf("%d distinct signatures, want 3", len(all))
	}
	st := m.Stats()
	if got := st.Submitted + st.CacheHits; got != clients*perClient {
		t.Fatalf("submitted(%d) + cacheHits(%d) = %d, want %d", st.Submitted, st.CacheHits, got, clients*perClient)
	}
	if st.Failed != 0 || st.Rejected != 0 {
		t.Fatalf("failures under load: %+v", st)
	}
}
