package jobs_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestCacheEvictionCounter: filling the result cache past capacity must
// evict LRU entries and count every eviction.
func TestCacheEvictionCounter(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 2})
	for latency := 1; latency <= 3; latency++ {
		cfg := testConfig()
		cfg.CompressLatency = latency
		j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	st := m.Stats()
	if st.CacheEvictions != 1 {
		t.Fatalf("CacheEvictions = %d after 3 results in a 2-entry cache, want 1", st.CacheEvictions)
	}
	if st.CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want the cache full at 2", st.CacheEntries)
	}
}

// TestRejectReasonCounters: backpressure (queue full) and lifecycle
// (draining) rejections are distinguishable, and their sum is the legacy
// Rejected counter.
func TestRejectReasonCounters(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 1, CacheSize: 4})

	// Distinct configs so single-flight cannot coalesce them: one runs
	// (pinned in Build), one waits in the depth-1 queue, the third is
	// backpressure.
	for i := 0; i < 3; i++ {
		cfg := testConfig()
		cfg.CompressLatency = i + 1
		_, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg})
		switch i {
		case 0, 1:
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if i == 0 {
				// Make sure the first job occupies the worker before the
				// second takes the only queue slot.
				waitQueueEmpty(t, m)
			}
		case 2:
			if !errors.Is(err, jobs.ErrQueueFull) {
				t.Fatalf("submit %d error = %v, want ErrQueueFull", i, err)
			}
		}
	}

	// Flip to draining without waiting for the drain to finish.
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Drain(drainCtx); err == nil {
		t.Fatal("drain with work in flight and a dead context must error")
	}
	cfg := testConfig()
	cfg.CompressLatency = 9
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg}); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("submit while draining error = %v, want ErrDraining", err)
	}

	st := m.Stats()
	if st.RejectedFull != 1 || st.RejectedDraining != 1 {
		t.Fatalf("reject split = full %d / draining %d, want 1 / 1", st.RejectedFull, st.RejectedDraining)
	}
	if st.Rejected != st.RejectedFull+st.RejectedDraining {
		t.Fatalf("Rejected = %d, want the sum of its reasons (%d)", st.Rejected, st.RejectedFull+st.RejectedDraining)
	}
	release()
}

// waitQueueEmpty polls until the FIFO is drained into the worker pool.
func waitQueueEmpty(t *testing.T, m *jobs.Manager) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Queued == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never drained into the worker pool")
}

// TestCloseFailsUnfinishedJobs: Close must terminate queued and running
// jobs with ErrShutdown — an explicit terminal state, queryable after the
// fact — rather than leaving them dangling.
func TestCloseFailsUnfinishedJobs(t *testing.T) {
	release := gate(t)
	m := jobs.NewManager(context.Background(), jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})

	running, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, jobs.StateRunning)
	queuedCfg := testConfig()
	queuedCfg.CompressLatency = 7
	queued, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: queuedCfg})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()

	for _, j := range []*jobs.Job{running, queued} {
		waitState(t, j, jobs.StateFailed)
		if _, err := j.Result(); !errors.Is(err, jobs.ErrShutdown) {
			t.Fatalf("job %s error = %v, want ErrShutdown", j.ID, err)
		}
	}
	release()
	<-closed
}

// TestSubscribeFrom: resuming a subscription after event N replays only
// the events that came later, with contiguous sequence numbers.
func TestSubscribeFrom(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	full, ch, cancel := j.SubscribeFrom(-1)
	cancel()
	if ch != nil {
		t.Fatal("subscription on a finished job must replay only")
	}
	if len(full) < 3 {
		t.Fatalf("history too short: %+v", full)
	}
	for i, ev := range full {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d; history ids must be contiguous", i, ev.Seq)
		}
	}

	after := full[1].Seq
	tail, ch, cancel := j.SubscribeFrom(after)
	cancel()
	if ch != nil {
		t.Fatal("resumed subscription on a finished job must replay only")
	}
	if len(tail) != len(full)-2 {
		t.Fatalf("SubscribeFrom(%d) replayed %d events, want %d", after, len(tail), len(full)-2)
	}
	if len(tail) > 0 && tail[0].Seq != after+1 {
		t.Fatalf("resume starts at Seq %d, want %d", tail[0].Seq, after+1)
	}
}
