package jobs_test

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/jobs"
	"repro/internal/sim"
)

// TestRecordReplayRoundTrip is the serving-layer replay oracle: a record
// job captures a trace, a replay job under a different configuration
// re-times it, and the replayed result is byte-identical to executing that
// configuration from scratch.
func TestRecordReplayRoundTrip(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})

	rec, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rec)
	ref := rec.TraceRef()
	if ref == "" {
		t.Fatal("record job finished without a trace ref")
	}
	v := rec.View()
	if v.Mode != jobs.ModeRecord || v.TraceRef != ref {
		t.Fatalf("record view = %+v, want mode=record trace_ref=%s", v, ref)
	}
	events, _, _ := rec.SubscribeFrom(-1)
	last := events[len(events)-1]
	if last.Kind != "done" || last.TraceRef != ref {
		t.Fatalf("terminal event = %+v, want done carrying %s", last, ref)
	}
	if st := m.Stats(); st.TracesRecorded != 1 || st.TraceEntries != 1 {
		t.Fatalf("trace stats = %+v, want 1 recorded, 1 resident", st)
	}

	// Replay the trace under a different timing configuration; the
	// benchmark is optional (the recording remembers it).
	cfg2 := testConfig()
	cfg2.CompressLatency = 4
	rep, err := m.SubmitRequest(jobs.Request{Config: cfg2, Mode: jobs.ModeReplay, TraceRef: ref})
	if err != nil {
		t.Fatal(err)
	}
	repRes := waitDone(t, rep)
	if rep.Benchmark != "zz-hold" {
		t.Fatalf("replay job benchmark %q, want zz-hold (from the trace)", rep.Benchmark)
	}
	if v := rep.View(); v.Mode != jobs.ModeReplay || v.TraceRef != ref {
		t.Fatalf("replay view = %+v", v)
	}

	// Execute the same configuration on a fresh manager (no shared cache)
	// and compare serialized results byte for byte.
	m2 := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	exe, err := m2.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	exeRes := waitDone(t, exe)
	rj, _ := json.Marshal(repRes)
	ej, _ := json.Marshal(exeRes)
	if string(rj) != string(ej) {
		t.Fatalf("replayed result differs from executed result:\nreplay:  %s\nexecute: %s", rj, ej)
	}
}

// TestTraceModeValidation covers every strict rejection of the trace-mode
// request surface: unknown modes, dangling or missing refs, refs on
// non-replay modes, benchmark mismatches and fault configurations.
func TestTraceModeValidation(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8})

	var badMode *jobs.UnknownModeError
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: "turbo"}); !errors.As(err, &badMode) {
		t.Fatalf("unknown mode: err = %v, want *UnknownModeError", err)
	}

	var badTrace *jobs.UnknownTraceError
	if _, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: "trace-999999"}); !errors.As(err, &badTrace) {
		t.Fatalf("dangling ref: err = %v, want *UnknownTraceError", err)
	}

	if _, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay}); err == nil {
		t.Fatal("replay without a trace_ref accepted")
	}
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), TraceRef: "trace-000001"}); err == nil {
		t.Fatal("trace_ref on an execute job accepted")
	}

	faulty := testConfig()
	faulty.Faults.StuckAtBanks = 1
	faulty.Faults.Seed = 7
	var cfgErr *sim.ConfigError
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: faulty, Mode: jobs.ModeRecord}); !errors.As(err, &cfgErr) || cfgErr.Field != "Faults" {
		t.Fatalf("record with faults: err = %v, want *sim.ConfigError on Faults", err)
	}

	rec, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rec)
	if _, err := m.SubmitRequest(jobs.Request{Benchmark: "bfs", Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: rec.TraceRef()}); err == nil {
		t.Fatal("replay under the wrong benchmark accepted")
	}
}

// TestTraceStoreEviction: the bounded store drops the oldest recording,
// whose ref then fails replay submission strictly.
func TestTraceStoreEviction(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 8, CacheSize: 8, TraceStore: 2})
	refs := make([]string, 3)
	for i := range refs {
		rec, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Mode: jobs.ModeRecord})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, rec)
		refs[i] = rec.TraceRef()
	}
	st := m.Stats()
	if st.TracesRecorded != 3 || st.TraceEntries != 2 || st.TraceEvictions != 1 {
		t.Fatalf("trace stats = %+v, want 3 recorded / 2 resident / 1 evicted", st)
	}
	var badTrace *jobs.UnknownTraceError
	if _, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: refs[0]}); !errors.As(err, &badTrace) {
		t.Fatalf("evicted ref: err = %v, want *UnknownTraceError", err)
	}
	if _, err := m.SubmitRequest(jobs.Request{Config: testConfig(), Mode: jobs.ModeReplay, TraceRef: refs[2]}); err != nil {
		t.Fatalf("latest ref rejected: %v", err)
	}
}
