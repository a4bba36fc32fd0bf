package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestTraceCacheKeepsNewestOverBudget: with a trace budget smaller than any
// one trace, the engine keeps the trace it just recorded (so later
// configurations of that benchmark replay it instead of recording again),
// and the next benchmark's recording evicts it. Results stay byte-identical
// to execute mode throughout.
func TestTraceCacheKeepsNewestOverBudget(t *testing.T) {
	newEngine := func(recordReplay bool) *engine {
		e := NewEngine(context.Background(), EngineConfig{Parallelism: 1, Scale: kernels.Small, RecordReplay: recordReplay}).eng
		e.traceUse = store.NewTracker(0, 1)
		return e
	}
	rr, exec := newEngine(true), newEngine(false)
	cached := func(name string) *traceEntry {
		rr.traceMu.Lock()
		defer rr.traceMu.Unlock()
		return rr.traces[name]
	}
	run := func(name string, compressLatency int) {
		t.Helper()
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		c := sim.DefaultConfig()
		c.NumSMs = 2
		c.CompressLatency = compressLatency
		got, err := rr.run(b, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.run(b, c)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("%s at CompressLatency %d: record/replay result differs from execute", name, compressLatency)
		}
	}

	run("mum", 1)
	mum := cached("mum")
	if mum == nil || mum.lt == nil {
		t.Fatal("mum trace dropped as soon as it was recorded")
	}
	run("mum", 2)
	if cached("mum") != mum {
		t.Fatal("mum recorded again instead of replaying its cached trace")
	}
	run("lib", 1)
	if cached("mum") != nil {
		t.Fatal("mum trace survived the next benchmark's recording over budget")
	}
	if lib := cached("lib"); lib == nil || lib.lt == nil {
		t.Fatal("lib trace not cached")
	}
	if n := rr.traceUse.Len(); n != 1 {
		t.Fatalf("budgeted traces = %d, want 1", n)
	}
}
