package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

// fqTask tags a task with its tenant for dispatch-order assertions.
func fqTask(id string) task {
	return task{job: &Job{ID: id}}
}

// TestFairQueueSmoothWRR: with weights a=2, b=1 and both tenants
// backlogged, dispatch follows the smooth weighted-round-robin sequence —
// a's turns are spread out, not bursted.
func TestFairQueueSmoothWRR(t *testing.T) {
	fq := newFairQueue(100, []Tenant{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}})
	a, _ := fq.tenantByName("a")
	b, _ := fq.tenantByName("b")
	for i := 0; i < 4; i++ {
		if err := fq.admit(a, fqTask("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := fq.admit(b, fqTask("b")); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a", "b", "a", "a", "b", "a"}
	for i, w := range want {
		tk, ok := fq.next()
		if !ok {
			t.Fatalf("queue dried up at dispatch %d", i)
		}
		if tk.job.ID != w {
			t.Fatalf("dispatch %d went to %q, want %q (smooth WRR order %v)", i, tk.job.ID, w, want)
		}
	}
	if fq.size != 0 {
		t.Fatalf("%d tasks left after draining", fq.size)
	}
}

// TestFairQueueNoStarvation: a heavy tenant flooding the queue cannot
// starve a light one — the light tenant's single job is dispatched within
// a bounded number of rounds.
func TestFairQueueNoStarvation(t *testing.T) {
	fq := newFairQueue(1000, []Tenant{{Name: "heavy", Weight: 10}, {Name: "light", Weight: 1}})
	heavy, _ := fq.tenantByName("heavy")
	light, _ := fq.tenantByName("light")
	for i := 0; i < 100; i++ {
		if err := fq.admit(heavy, fqTask("heavy")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fq.admit(light, fqTask("light")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		tk, _ := fq.next()
		if tk.job.ID == "light" {
			return // dispatched within one weight cycle
		}
	}
	t.Fatal("light tenant not dispatched within 12 rounds against weight-10 competition")
}

// TestFairQueueCloseDrains: close stops admission but queued tasks are
// still handed out, then next reports exhaustion — the drain semantics
// Close relies on.
func TestFairQueueCloseDrains(t *testing.T) {
	fq := newFairQueue(10, nil)
	def, _ := fq.tenantByName("")
	fq.admit(def, fqTask("one")) //nolint:errcheck
	fq.admit(def, fqTask("two")) //nolint:errcheck
	fq.close()
	if err := fq.admit(def, fqTask("three")); err == nil {
		t.Fatal("push accepted after close")
	}
	for _, want := range []string{"one", "two"} {
		tk, ok := fq.next()
		if !ok {
			t.Fatalf("post-close drain ended before %q", want)
		}
		if tk.job.ID != want {
			t.Fatalf("post-close drain returned %q, want %q", tk.job.ID, want)
		}
	}
	if _, ok := fq.next(); ok {
		t.Fatal("next returned a task from an empty closed queue")
	}
}

// TestAdmitDoesNotChargeRateOnCongestion: a submission refused for queue
// depth or tenant quota must not spend a rate token — otherwise a tenant
// pushing into a congested queue drains its rate budget on work that was
// never admitted, and its 429s compound.
func TestAdmitDoesNotChargeRateOnCongestion(t *testing.T) {
	fq := newFairQueue(1, []Tenant{
		{Name: "filler"},
		// A refill rate of ~0 makes the single burst token the entire
		// budget for the test's lifetime.
		{Name: "limited", RatePerSec: 1e-9, Burst: 1},
	})
	filler, _ := fq.tenantByName("filler")
	limited, _ := fq.tenantByName("limited")

	if err := fq.admit(filler, fqTask("fill")); err != nil {
		t.Fatal(err)
	}
	if err := fq.admit(limited, fqTask("x")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admit into a full queue: err = %v, want ErrQueueFull", err)
	}
	if _, ok := fq.next(); !ok {
		t.Fatal("queue did not hand back the filler task")
	}
	// The rejected submission must not have cost the token.
	if err := fq.admit(limited, fqTask("x2")); err != nil {
		t.Fatalf("post-congestion admit: %v (rate token was charged for rejected work)", err)
	}
	if _, ok := fq.next(); !ok {
		t.Fatal("queue did not hand back the admitted task")
	}
	// The token is now genuinely spent; with the queue drained again, this
	// failure is the rate limiter's.
	if err := fq.admit(limited, fqTask("x3")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("exhausted bucket: err = %v, want ErrRateLimited", err)
	}
}

// TestAdmitQuotaBeforeRate: the tenant queue quota is enforced before the
// rate charge, so hitting MaxQueued leaves the bucket untouched.
func TestAdmitQuotaBeforeRate(t *testing.T) {
	fq := newFairQueue(10, []Tenant{
		{Name: "a", MaxQueued: 1, RatePerSec: 1e-9, Burst: 2},
	})
	a, _ := fq.tenantByName("a")
	if err := fq.admit(a, fqTask("one")); err != nil {
		t.Fatal(err)
	}
	if err := fq.admit(a, fqTask("two")); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("over-quota admit: err = %v, want ErrTenantQueueFull", err)
	}
	if a.tokens != 1 {
		t.Fatalf("tokens = %v after a quota rejection, want 1 (untouched)", a.tokens)
	}
}

// TestDrainFlushesInflightPersists: the write-through persist of a
// completed result is deliberately stalled; Drain must not return until it
// lands on disk. This is the SIGTERM-during-a-sweep guarantee.
func TestDrainFlushesInflightPersists(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(context.Background(), Config{Workers: 1, QueueDepth: 4, CacheSize: 4, Store: st})
	defer m.Close()
	const delay = 300 * time.Millisecond
	m.testWriteDelay = delay

	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	j, err := m.SubmitRequest(Request{Benchmark: "zz-hold", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for j.State() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", j.State())
		}
		time.Sleep(2 * time.Millisecond)
	}

	start := time.Now()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The persist was still sleeping when the job finished; a Drain that
	// returns almost immediately did not wait for it.
	if waited := time.Since(start); waited < delay/2 {
		t.Fatalf("Drain returned after %v; it did not wait for the stalled persist (%v)", waited, delay)
	}
	if _, ok := st.Get(store.NSResult, m.storeKey(j.Benchmark, j.Signature)); !ok {
		t.Fatal("result not on disk after Drain returned")
	}
}
