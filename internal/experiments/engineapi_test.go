package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// engineTestConfig is a small, fast hardware config for engine API tests.
func engineTestConfig() sim.Config {
	c := sim.DefaultConfig()
	c.NumSMs = 4
	return c
}

// apiGate holds the zz-gate benchmark's Build hostage until the
// single-flight test has lined up its concurrent requesters. The test
// re-makes it on entry and closes it once per run (so -count=N works);
// Builds after the close pass straight through.
var apiGate = make(chan struct{})

func init() {
	kernels.Register(&kernels.Benchmark{
		Name:        "zz-gate",
		Suite:       "test",
		Description: "blocks in Build until released, then runs a tiny kernel",
		Build: func(m *mem.Global, s kernels.Scale) (*kernels.Instance, error) {
			<-apiGate
			k, err := asm.Assemble("zz-gate", "\tmov r0, %tid.x\n\texit\n")
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

// TestEngineSingleFlightWithoutMemo: with memoization off, concurrent runs
// of one key must still coalesce into a single simulation (single-flight),
// but a later sequential run of the same key simulates again — the
// completed entry is evicted, retention is the caller's job.
func TestEngineSingleFlightWithoutMemo(t *testing.T) {
	apiGate = make(chan struct{})
	var starts, hits atomic.Int64
	firstStart := make(chan struct{})
	var once sync.Once
	e := NewEngine(context.Background(), EngineConfig{
		Parallelism: 4,
		Scale:       kernels.Small,
		Progress: func(ev Event) {
			switch ev.Kind {
			case EventJobStart:
				starts.Add(1)
				once.Do(func() { close(firstStart) })
			case EventCacheHit:
				hits.Add(1)
			}
		},
	})
	b, ok := kernels.ByName("zz-gate")
	if !ok {
		t.Fatal("benchmark zz-gate not registered")
	}
	cfg := engineTestConfig()

	var wg sync.WaitGroup
	results := make([]*sim.Result, 3)
	errs := make([]error, 3)
	run := func(i int) {
		defer wg.Done()
		results[i], errs[i] = e.Run(b, cfg)
	}
	wg.Add(1)
	go run(0)
	// Wait until the first job is in flight (blocked in Build on apiGate),
	// then aim two more requesters at the same key. The sleep gives them
	// time to reach the single-flight join before the gate opens; if they
	// were somehow still slower, the test would fail loudly, not hang.
	<-firstStart
	wg.Add(2)
	go run(1)
	go run(2)
	time.Sleep(200 * time.Millisecond)
	close(apiGate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("coalesced runs disagree: %d vs %d cycles", results[i].Cycles, results[0].Cycles)
		}
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("%d simulations started, want 1 (single-flight)", n)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("%d coalesced joins, want 2", n)
	}

	// Sequential re-run: the key was evicted, so it simulates again (the
	// gate is already open, so this completes immediately).
	if _, err := e.Run(b, cfg); err != nil {
		t.Fatal(err)
	}
	if n := starts.Load(); n != 2 {
		t.Fatalf("%d simulations after re-run, want 2 (no memoization)", n)
	}
}

// TestEngineMemoized: with Memoize on, a re-run is served from the memo
// cache without simulating again — the Runner's behaviour, now reachable
// through the exported API.
func TestEngineMemoized(t *testing.T) {
	starts, hits := 0, 0
	e := NewEngine(context.Background(), EngineConfig{
		Parallelism: 2,
		Scale:       kernels.Small,
		Memoize:     true,
		Progress: func(ev Event) {
			switch ev.Kind {
			case EventJobStart:
				starts++
			case EventCacheHit:
				hits++
			}
		},
	})
	b, _ := kernels.ByName("lib")
	cfg := engineTestConfig()
	if _, err := e.Run(b, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(b, cfg); err != nil {
		t.Fatal(err)
	}
	if starts != 1 || hits != 1 {
		t.Fatalf("starts=%d hits=%d, want 1/1 (memoized)", starts, hits)
	}
}

// TestEngineSignatureKeying: distinct configurations must not coalesce.
func TestEngineSignatureKeying(t *testing.T) {
	starts := 0
	e := NewEngine(context.Background(), EngineConfig{
		Parallelism: 2,
		Scale:       kernels.Small,
		Memoize:     true,
		Progress: func(ev Event) {
			if ev.Kind == EventJobStart {
				starts++
			}
		},
	})
	b, _ := kernels.ByName("lib")
	warped := engineTestConfig()
	baseline := engineTestConfig()
	baseline.Compression = sim.BaselineConfig().Compression
	baseline.PowerGating = false
	if ConfigSignature(&warped) == ConfigSignature(&baseline) {
		t.Fatal("distinct configs share a signature")
	}
	if _, err := e.Run(b, warped); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(b, baseline); err != nil {
		t.Fatal(err)
	}
	if starts != 2 {
		t.Fatalf("%d simulations, want 2 (distinct keys)", starts)
	}
}
