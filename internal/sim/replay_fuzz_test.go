package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/asm"
	"repro/internal/exectrace"
	"repro/internal/isa"
)

// replayRacySrc has every thread of every warp count one global cell up to
// 40, so how often each warp loops depends on how its loads interleave
// with the other warps' stores — on the schedule. The recorder must refuse
// it.
const replayRacySrc = `
	mov  r2, 64
Lloop:
	ld.global r3, [r2]
	add  r3, r3, 1
	st.global [r2], r3
	setp.lt p0, r3, 40
@p0	bra Lloop
	exit
`

// perturbRows are the digestConfigs rows a trace may replay under: every
// row without fault injection, which record and replay refuse.
func perturbRows() []int {
	var rows []int
	for i, dc := range digestConfigs {
		c := DefaultConfig()
		dc.mut(&c)
		if !c.Faults.Enabled() {
			rows = append(rows, i)
		}
	}
	return rows
}

// FuzzRecordReplay is the end-to-end trace oracle as a fuzz target: any
// assemblable kernel that records successfully must replay — through a full
// wire-format round trip — to the byte-identical sim.Result, and, under a
// fault-free digestConfigs row the fuzzer picks, the recorded launch and
// its round trip must each replay to the result of executing the kernel
// under that row. The corpus seeds it with the suite's representative
// control-flow shapes and with a racy kernel the recorder refuses; the
// fuzzer then mutates the assembly, the geometry, the SM shard count
// (record and replay run at independent shard counts, which must be
// invisible) and the row.
func FuzzRecordReplay(f *testing.F) {
	f.Add(tidKernelSrc, uint8(3), uint8(1), uint8(0), uint8(0))
	f.Add(replayDivergentSrc, uint8(2), uint8(1), uint8(1), uint8(3))
	f.Add(replayAtomicSrc, uint8(1), uint8(0), uint8(2), uint8(16))
	f.Add(replayAtomicSrc, uint8(3), uint8(2), uint8(7), uint8(18))
	f.Add(steadyBoundedSrc, uint8(1), uint8(1), uint8(1), uint8(17))
	f.Add(replayRacySrc, uint8(1), uint8(1), uint8(0), uint8(14))

	rows := perturbRows()
	f.Fuzz(func(t *testing.T, src string, grid, block, shards, row uint8) {
		k, err := asm.Assemble("fuzz", src)
		if err != nil {
			t.Skip()
		}
		l := isa.Launch{
			Kernel: k,
			Grid:   isa.Dim3{X: 1 + int(grid)%4},
			Block:  isa.Dim3{X: 32 * (1 + int(block)%4)},
		}
		c := testConfig()
		c.MaxCycles = 200_000 // fuzzed kernels may loop forever
		// Record at one shard count, replay at another: byte-equality of the
		// two results proves sharding is invisible end to end.
		c.SMParallel = 1 + int(shards)%4
		cR := c
		cR.SMParallel = 1 + int(shards/4)%4

		gRec, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		recRes, lt, err := gRec.Record(l)
		if err != nil {
			t.Skip() // invalid program behavior (OOB access, runaway loop) or untraceable
		}
		var buf bytes.Buffer
		if err := exectrace.Write(&buf, &exectrace.Trace{Launches: []*exectrace.Launch{lt}}); err != nil {
			t.Fatalf("recorded trace failed to serialize: %v", err)
		}
		decoded, err := exectrace.Read(&buf)
		if err != nil {
			t.Fatalf("serialized trace failed to decode: %v", err)
		}
		want := outcome(t, recRes, nil)
		if got := replayOutcome(t, cR, decoded.Launches[0]); got != want {
			t.Fatalf("replay diverged from record\nrecord: %s\nreplay: %s", want, got)
		}

		// The recorder does not check shared-memory races yet (DESIGN.md
		// §15), so a kernel that stores to shared memory may record a
		// schedule-dependent stream; only its own schedule is compared.
		for _, in := range k.Code {
			if in.Op == isa.OpStS {
				return
			}
		}
		dc := digestConfigs[rows[int(row)%len(rows)]]
		cP := c
		dc.mut(&cP)
		cP.MaxCycles = c.MaxCycles
		gE, err := New(cP)
		if err != nil {
			t.Fatal(err)
		}
		exeRes, err := gE.Run(l)
		want = outcome(t, exeRes, err)
		for _, form := range []struct {
			name string
			lt   *exectrace.Launch
		}{{"recorded", lt}, {"wire round trip", decoded.Launches[0]}} {
			if got := replayOutcome(t, cP, form.lt); got != want {
				t.Fatalf("%s trace replayed under %s diverged from execute\nexecute: %s\nreplay:  %s", form.name, dc.name, want, got)
			}
		}
	})
}

// outcome is a run's outcome as text: its result document, or its error.
func outcome(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// replayOutcome replays lt on a fresh GPU under c and returns its outcome.
func replayOutcome(t *testing.T, c Config, lt *exectrace.Launch) string {
	t.Helper()
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Replay(lt)
	return outcome(t, res, err)
}
