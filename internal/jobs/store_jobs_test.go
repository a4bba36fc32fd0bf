package jobs_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jobs"
	"repro/internal/store"
)

// openStore opens a disk store rooted at dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resultFiles returns every persisted result entry under the store dir.
func resultFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "result", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreRestartServesFromDisk is the single-node restart scenario: a
// manager computes a result, the process "restarts" (new store handle on
// the same directory, new manager), and the repeat submission is served
// from disk — done on return, no recomputation, counted as a store hit.
func TestStoreRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	j1, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, j1)
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if len(resultFiles(t, dir)) != 1 {
		t.Fatalf("store holds %d result entries after drain, want 1", len(resultFiles(t, dir)))
	}

	m2 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	j2, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if j2.State() != jobs.StateDone {
		t.Fatalf("restarted manager state = %s, want immediate StateDone from the store", j2.State())
	}
	replay, _, cancel := j2.SubscribeFrom(-1)
	cancel()
	if len(replay) != 1 || replay[0].Kind != "store-hit" {
		t.Fatalf("event replay = %+v, want a single store-hit", replay)
	}
	got, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("store round-trip changed the result:\n  disk: %s\n  live: %s", gb, wb)
	}
	st := m2.Stats()
	if st.StoreHits != 1 || !st.StoreEnabled {
		t.Fatalf("StoreHits = %d (enabled %v), want 1 hit", st.StoreHits, st.StoreEnabled)
	}
	if !j2.View().Cached {
		t.Fatal("store-served job not marked cached in its view")
	}
}

// TestStoreCorruptionRecomputes: a truncated entry must never surface as a
// result. The restarted manager quarantines it and recomputes, producing
// the same answer as the original run.
func TestStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	j1, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, j1)
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	files := resultFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("result entries = %d, want 1", len(files))
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	j2, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, j2) // recomputed, not served corrupt
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("recomputed result differs from original:\n  %s\n  %s", wb, gb)
	}
	st := m2.Stats()
	if st.StoreHits != 0 {
		t.Fatalf("StoreHits = %d, want 0 (entry was corrupt)", st.StoreHits)
	}
	if st.StoreQuarantined == 0 {
		t.Fatal("corrupt entry was not quarantined")
	}
}

// TestStoreUndecodableResultQuarantined: an entry that passes the CRC but
// does not decode as a sim.Result (wrong payload written under a result
// key) is quarantined by the manager, not served.
func TestStoreUndecodableResultQuarantined(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	m1 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: st1})
	j1, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Overwrite the entry with a checksummed-but-wrong payload under the
	// same key, via the store API itself (so the CRC is valid).
	st2 := openStore(t, dir)
	keys := st2.Keys(store.NSResult)
	if len(keys) != 1 {
		t.Fatalf("result keys = %v, want exactly one", keys)
	}
	if err := st2.Put(store.NSResult, keys[0], []byte("not json at all")); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: st2})
	j2, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	st := m2.Stats()
	if st.StoreHits != 0 {
		t.Fatalf("StoreHits = %d, want 0", st.StoreHits)
	}
	if st.StoreQuarantined == 0 {
		t.Fatal("undecodable result entry was not quarantined")
	}
}

// TestStoreWriteFailureDegrades: when the disk goes away mid-flight
// (directory deleted — the ENOSPC stand-in), jobs still complete from
// compute and the failure is only a counter, never an error to the client.
func TestStoreWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: st})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (write failure must not fail the job)", stats.Completed)
	}
	if stats.StoreWriteErrors == 0 {
		t.Fatal("write to a missing directory was not counted as a store write error")
	}
}

// TestTraceRefSurvivesRestart: a recorded trace is persisted; after a
// restart the same ref replays from disk, and new recordings continue the
// ref sequence instead of colliding with persisted ones.
func TestTraceRefSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	rec, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, rec)
	ref := rec.TraceRef()
	if ref == "" {
		t.Fatal("record job produced no trace ref")
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	rep, err := m2.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: ref})
	if err != nil {
		t.Fatalf("replay of persisted ref %s: %v", ref, err)
	}
	got := waitDone(t, rep)
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("replay-from-disk result differs from the recording:\n  %s\n  %s", wb, gb)
	}

	// The record job also stored its own result, so the replay above was
	// answered from disk. Under a configuration nothing stored, the trace
	// read back from disk must actually drive a simulation.
	cfgNew := testConfig()
	cfgNew.CompressLatency = 5
	rep2, err := m2.SubmitRequest(jobs.Request{Config: cfgNew, Mode: jobs.ModeReplay, TraceRef: ref})
	if err != nil {
		t.Fatalf("replay of persisted ref %s under a new config: %v", ref, err)
	}
	replayed := waitDone(t, rep2)
	events, _, cancel := rep2.SubscribeFrom(-1)
	cancel()
	simulated := false
	for _, ev := range events {
		simulated = simulated || ev.Kind == "sim-start"
	}
	if !simulated {
		t.Fatalf("replay under a new config events = %+v, want a sim-start", events)
	}
	if c := m2.Stats().Completed; c != 1 {
		t.Fatalf("Completed = %d after the new-config replay, want 1", c)
	}
	fresh := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	exe, err := fresh.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgNew})
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := json.Marshal(replayed)
	eb, _ := json.Marshal(waitDone(t, exe))
	if string(rb) != string(eb) {
		t.Fatalf("replay of a disk-loaded trace differs from execute:\n  replay:  %s\n  execute: %s", rb, eb)
	}

	cfg2 := testConfig()
	cfg2.CompressLatency = 7 // distinct config so nothing coalesces
	rec2, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg2, Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rec2)
	if rec2.TraceRef() == ref {
		t.Fatalf("restarted manager reissued ref %s for a new recording", ref)
	}
}

// TestTraceRefsUniqueAcrossProcesses: two live managers writing through to
// one shared store directory (the multi-worker deployment) must never mint
// the same trace ref — a collision would let one worker's recording
// silently overwrite the other's, and a later replay would run the wrong
// trace. Refs carry a per-process nonce precisely to rule this out.
func TestTraceRefsUniqueAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	m2 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})

	// The identical submission on both managers: under a shared counter
	// scheme both would mint the first ref.
	j1, err := m1.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	waitDone(t, j2)
	ref1, ref2 := j1.TraceRef(), j2.TraceRef()
	if ref1 == "" || ref2 == "" {
		t.Fatalf("missing refs: %q, %q", ref1, ref2)
	}
	if ref1 == ref2 {
		t.Fatalf("both processes minted ref %s; recordings overwrite each other in the shared store", ref1)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	m2.Close()

	// Both recordings survived side by side: a third process replays each.
	m3 := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: openStore(t, dir)})
	for _, ref := range []string{ref1, ref2} {
		rep, err := m3.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: ref})
		if err != nil {
			t.Fatalf("replay of %s from shared store: %v", ref, err)
		}
		waitDone(t, rep)
	}
}

// TestTraceStoreByteBudget: the in-memory trace store enforces the byte
// budget with the same LRU policy as the disk store — older recordings are
// evicted and counted, and replaying an evicted ref without a disk store
// fails cleanly.
func TestTraceStoreByteBudget(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 0, TraceStore: 16, TraceStoreBytes: 1})
	refs := make([]string, 2)
	for i := range refs {
		cfg := testConfig()
		cfg.CompressLatency = i + 1
		j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg, Mode: jobs.ModeRecord})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		refs[i] = j.TraceRef()
	}
	st := m.Stats()
	if st.TraceEntries != 1 {
		t.Fatalf("trace entries = %d, want 1 under a 1-byte budget", st.TraceEntries)
	}
	if st.TraceEvictions == 0 || st.TraceEvictedBytes == 0 {
		t.Fatalf("evictions = %d, evicted bytes = %d; want both > 0", st.TraceEvictions, st.TraceEvictedBytes)
	}
	var unknown *jobs.UnknownTraceError
	if _, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: refs[0]}); !errors.As(err, &unknown) {
		t.Fatalf("replay of evicted ref: err = %v, want UnknownTraceError", err)
	}
}
