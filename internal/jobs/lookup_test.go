package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exectrace"
	"repro/internal/jobs"
	"repro/internal/store"
)

// lookupCounters is every cache, trace and store field of jobs.Stats: the
// counters the memory → disk lookup moves.
type lookupCounters struct {
	CacheHits, CacheMisses, CacheEvictions uint64
	CacheEntries                           int

	TracesRecorded, TraceEvictions uint64
	TraceEntries                   int
	TraceBytes                     int64
	TraceEvictedBytes              uint64

	StoreEnabled                    bool
	StoreHits                       uint64
	StoreEntries                    int
	StoreBytes, StoreBudget         int64
	StoreWrites, StoreWriteErrors   uint64
	StoreQuarantined                uint64
	StoreEvicted, StoreEvictedBytes uint64
}

func countersOf(s jobs.Stats) lookupCounters {
	return lookupCounters{
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses, CacheEvictions: s.CacheEvictions, CacheEntries: s.CacheEntries,
		TracesRecorded: s.TracesRecorded, TraceEvictions: s.TraceEvictions, TraceEntries: s.TraceEntries,
		TraceBytes: s.TraceBytes, TraceEvictedBytes: s.TraceEvictedBytes,
		StoreEnabled: s.StoreEnabled, StoreHits: s.StoreHits, StoreEntries: s.StoreEntries,
		StoreBytes: s.StoreBytes, StoreBudget: s.StoreBudget, StoreWrites: s.StoreWrites,
		StoreWriteErrors: s.StoreWriteErrors, StoreQuarantined: s.StoreQuarantined,
		StoreEvicted: s.StoreEvicted, StoreEvictedBytes: s.StoreEvictedBytes,
	}
}

// eventKinds is a finished job's recorded event history, kinds only.
func eventKinds(t *testing.T, j *jobs.Job) []string {
	t.Helper()
	waitDone(t, j)
	events, _, cancel := j.SubscribeFrom(-1)
	cancel()
	kinds := make([]string, len(events))
	for i, ev := range events {
		kinds[i] = ev.Kind
	}
	return kinds
}

// TestLookupCounters drives one deterministic scenario through managers
// sharing one store directory and pins, step by step, which layer served
// each submission (its event kinds) and every lookup counter. Counters
// that depend on write-through persists are read after a Drain, which
// flushes them.
func TestLookupCounters(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	ran := []string{"queued", "running", "sim-start", "sim-done", "done"}

	submit := func(m *jobs.Manager, req jobs.Request, want []string) *jobs.Job {
		t.Helper()
		j, err := m.SubmitRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := eventKinds(t, j); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s %s events = %v, want %v", req.Mode, req.Benchmark, got, want)
		}
		return j
	}
	check := func(step string, m *jobs.Manager, want lookupCounters) {
		t.Helper()
		if got := countersOf(m.Stats()); got != want {
			t.Fatalf("%s:\n got %+v\nwant %+v", step, got, want)
		}
	}
	drain := func(m *jobs.Manager) {
		t.Helper()
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	exec := jobs.Request{Benchmark: "zz-hold", Config: cfg}

	// A cold submit computes and writes through; the identical submit is a
	// memory hit.
	m1 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	submit(m1, exec, ran)
	submit(m1, exec, []string{"cache-hit"})
	drain(m1)
	check("cold then memory hit", m1, lookupCounters{
		CacheHits: 1, CacheMisses: 1, CacheEntries: 1,
		StoreEnabled: true, StoreEntries: 1, StoreBytes: 1788, StoreWrites: 1,
	})
	m1.Close()

	// After a restart the disk answers, and promotes into memory.
	shared := openStore(t, dir)
	m2 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Store: shared})
	submit(m2, exec, []string{"store-hit"})
	submit(m2, exec, []string{"cache-hit"})
	check("store hit then promoted hit", m2, lookupCounters{
		CacheHits: 1, CacheMisses: 1, CacheEntries: 1,
		StoreEnabled: true, StoreHits: 1, StoreEntries: 1, StoreBytes: 1788,
	})

	// With no memory layer every submission is a store hit.
	m3 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 0, Store: shared})
	submit(m3, exec, []string{"store-hit"})
	submit(m3, exec, []string{"store-hit"})
	check("CacheSize 0", m3, lookupCounters{
		CacheMisses:  2,
		StoreEnabled: true, StoreHits: 2, StoreEntries: 1, StoreBytes: 1788,
	})

	// A record skips the result lookup; a replay resolves its trace from
	// memory and runs under a configuration nothing has computed.
	rec := submit(m2, jobs.Request{Benchmark: "zz-hold", Config: cfg, Mode: jobs.ModeRecord}, ran)
	ref := rec.TraceRef()
	cfg1 := cfg
	cfg1.CompressLatency = 3
	submit(m2, jobs.Request{Config: cfg1, Mode: jobs.ModeReplay, TraceRef: ref}, ran)
	drain(m2)
	check("record then replay from memory", m2, lookupCounters{
		CacheHits: 1, CacheMisses: 2, CacheEntries: 2,
		TracesRecorded: 1, TraceEntries: 1, TraceBytes: 288,
		StoreEnabled: true, StoreHits: 1, StoreEntries: 3, StoreBytes: 3919, StoreWrites: 3,
	})

	// After a restart the trace is read back from disk. Under TraceStore 1
	// the next recording evicts it.
	m4 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, TraceStore: 1, Store: openStore(t, dir)})
	cfg2 := cfg
	cfg2.CompressLatency = 5
	submit(m4, jobs.Request{Config: cfg2, Mode: jobs.ModeReplay, TraceRef: ref}, ran)
	cfg3 := cfg
	cfg3.CompressLatency = 6
	submit(m4, jobs.Request{Benchmark: "zz-hold", Config: cfg3, Mode: jobs.ModeRecord}, ran)
	drain(m4)
	check("replay from disk then trace eviction", m4, lookupCounters{
		CacheMisses: 1, CacheEntries: 2,
		TracesRecorded: 1, TraceEvictions: 1, TraceEntries: 1, TraceBytes: 288, TraceEvictedBytes: 288,
		StoreEnabled: true, StoreEntries: 6, StoreBytes: 7838, StoreWrites: 3,
	})
}

// TestStoreUndecodableTraceQuarantined: a stored trace that passes the
// store's CRC but is not a single-launch warped.trace/v1 container is
// quarantined, never replayed: the replay fails as an unknown trace.
func TestStoreUndecodableTraceQuarantined(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	rec, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rec)
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	st := openStore(t, dir)
	blob, ok := st.Get(store.NSTrace, rec.TraceRef())
	if !ok {
		t.Fatal("recorded trace not on disk after Drain")
	}
	tr, err := exectrace.Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	tr.Launches = append(tr.Launches, tr.Launches[0])
	tr.Meta.Launches = 2
	var two bytes.Buffer
	if err := exectrace.Write(&two, tr); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ref, what string
		payload   []byte
	}{
		{"trace-not-a-trace", "non-trace blob", []byte(`{"cycles": 1}`)},
		{"trace-two-launches", "two-launch container", two.Bytes()},
	} {
		if err := st.Put(store.NSTrace, c.ref, c.payload); err != nil {
			t.Fatal(err)
		}
		m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Store: st})
		before := m.Stats().StoreQuarantined
		_, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: c.ref})
		var unknown *jobs.UnknownTraceError
		if !errors.As(err, &unknown) {
			t.Fatalf("%s: replay err = %v, want *UnknownTraceError", c.what, err)
		}
		if got := m.Stats().StoreQuarantined - before; got != 1 {
			t.Fatalf("%s: StoreQuarantined grew by %d, want 1", c.what, got)
		}
		if _, ok := st.Get(store.NSTrace, c.ref); ok {
			t.Fatalf("%s: quarantined entry still served by the store", c.what)
		}
	}
}
