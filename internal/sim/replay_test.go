package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// Divergent kernel exercising shared memory, a barrier, predication and
// reconvergence: each thread publishes its tid to shared memory, then
// reads its parity-neighbor's slot after the barrier.
const replayDivergentSrc = `
.shared 256
	mov  r0, %tid.x
	shl  r1, r0, 2
	st.shared [r1], r0
	bar.sync
	and  r2, r0, 1
	setp.eq p0, r2, 0
@p0	bra Leven
	sub  r3, r0, 1
	bra  Ljoin
Leven:
	add  r3, r0, 1
Ljoin:
	shl  r4, r3, 2
	ld.shared r5, [r4]
	shl  r6, r0, 2
	mad  r7, %ctaid.x, %ntid.x, 0
	shl  r7, r7, 2
	add  r6, r6, r7
	st.global [r6], r5
	exit
`

// Atomic kernel: every thread bumps one of 8 contended bins and stores the
// old value it observed — the schedule-dependent case the shadow-memory
// replay must reproduce exactly.
const replayAtomicSrc = `
	mov  r0, %tid.x
	mad  r1, %ctaid.x, %ntid.x, r0
	and  r2, r1, 7
	shl  r3, r2, 2
	atom.add r4, [r3], 1
	shl  r5, r1, 2
	add  r5, r5, 64
	st.global [r5], r4
	exit
`

// replayTestConfigs is a small sweep across the timing/compression design
// space: every entry must replay byte-identically from one shared trace.
func replayTestConfigs() []Config {
	warped := testConfig()

	baseline := testConfig()
	baseline.Compression = "off"
	baseline.PowerGating = false

	recompress := testConfig()
	recompress.DivergencePolicy = "recompress"

	rfc := testConfig()
	rfc.Compression = "off"
	rfc.PowerGating = false
	rfc.RFCEntries = 6

	noL1 := testConfig()
	noL1.L1SizeKB = 0
	noL1.Scheduler = "lrr"
	noL1.DrowsyAfter = 100
	noL1.CharacterizeWrites = true

	// Every non-default compression backend (schemes/v1) joins the sweep,
	// so each scheme inherits all the trace-mode oracles below.
	cfgs := []Config{warped, baseline, recompress, rfc, noL1}
	for _, scheme := range core.Schemes() {
		if scheme == core.DefaultScheme {
			continue // warped already covers bdi
		}
		c := testConfig()
		c.Compression = scheme
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func traceBytes(t *testing.T, lt *exectrace.Launch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exectrace.Write(&buf, &exectrace.Trace{Launches: []*exectrace.Launch{lt}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesExecute is the sim-level determinism oracle: for each
// kernel, a trace recorded under one configuration must replay under every
// configuration to the byte-identical Result that execute mode produces.
func TestReplayMatchesExecute(t *testing.T) {
	kernels := []struct {
		name, src   string
		grid, block int
	}{
		{"tid", tidKernelSrc, 4, 64},
		{"divergent-shared", replayDivergentSrc, 3, 64},
		{"atomic-bins", replayAtomicSrc, 2, 64},
	}
	cfgs := replayTestConfigs()

	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			k, err := asm.Assemble(kn.name, kn.src)
			if err != nil {
				t.Fatalf("Assemble: %v", err)
			}
			launch := func() isa.Launch {
				kc := *k // fresh ReconvPC per GPU, as benchmark loaders do
				return isa.Launch{Kernel: &kc, Grid: isa.Dim3{X: kn.grid}, Block: isa.Dim3{X: kn.block}}
			}

			// Record once, under the first configuration.
			gRec, err := New(cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			recRes, lt, err := gRec.Record(launch())
			if err != nil {
				t.Fatalf("Record: %v", err)
			}

			for ci, c := range cfgs {
				gE, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				resE, err := gE.Run(launch())
				if err != nil {
					t.Fatalf("cfg %d execute: %v", ci, err)
				}
				gR, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				resR, err := gR.Replay(lt)
				if err != nil {
					t.Fatalf("cfg %d replay: %v", ci, err)
				}
				be, br := resultBytes(t, resE), resultBytes(t, resR)
				if !bytes.Equal(be, br) {
					t.Errorf("cfg %d: replay diverged from execute\nexecute: %s\nreplay:  %s", ci, be, br)
				}
				if ci == 0 {
					// Recording must be pure observation.
					if !bytes.Equal(resultBytes(t, recRes), be) {
						t.Errorf("record-mode result differs from execute under the same config")
					}
				}
			}
		})
	}
}

// TestTraceIsRecordConfigIndependent pins the single-flight soundness
// property: the serialized trace bytes do not depend on which configuration
// happened to record first.
func TestTraceIsRecordConfigIndependent(t *testing.T) {
	k, err := asm.Assemble("atomic-bins", replayAtomicSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := replayTestConfigs()
	var first []byte
	for ci, c := range cfgs {
		kc := *k
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		_, lt, err := g.Record(isa.Launch{Kernel: &kc, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 64}})
		if err != nil {
			t.Fatalf("cfg %d record: %v", ci, err)
		}
		b := traceBytes(t, lt)
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("trace recorded under cfg %d differs from cfg 0 (%d vs %d bytes)", ci, len(b), len(first))
		}
	}
}

// TestReplaySurvivesWireRoundTrip replays from a decoded trace (not the
// recorder's in-memory object) to prove the wire format loses nothing the
// back-end consumes.
func TestReplaySurvivesWireRoundTrip(t *testing.T) {
	k, err := asm.Assemble("divergent-shared", replayDivergentSrc)
	if err != nil {
		t.Fatal(err)
	}
	kc := *k
	l := isa.Launch{Kernel: &kc, Grid: isa.Dim3{X: 3}, Block: isa.Dim3{X: 64}}
	g, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recRes, lt, err := g.Record(l)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exectrace.Write(&buf, &exectrace.Trace{Launches: []*exectrace.Launch{lt}}); err != nil {
		t.Fatal(err)
	}
	decoded, err := exectrace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gR, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	resR, err := gR.Replay(decoded.Launches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, recRes), resultBytes(t, resR)) {
		t.Fatalf("replay from decoded trace differs from record-mode result")
	}
}

// TestResidentTraceHalvesDecoded is the memory guard of the resident
// form: over the compute-dense kernels the Runner keeps traces of, the
// packed launches Record returns must take at most half the bytes of the
// same launches decoded.
func TestResidentTraceHalvesDecoded(t *testing.T) {
	var packed, decoded int64
	for _, name := range []string{"aes", "gemm_block", "gemm_naive", "kmeans", "lud", "pathfinder"} {
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		g, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := b.Build(g.Mem(), kernels.Small)
		if err != nil {
			t.Fatal(err)
		}
		_, lt, err := g.Record(inst.Launch)
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		tr, err := exectrace.Read(bytes.NewReader(traceBytes(t, lt)))
		if err != nil {
			t.Fatal(err)
		}
		packed += lt.MemBytes()
		decoded += tr.MemBytes()
	}
	t.Logf("resident %d bytes, decoded %d", packed, decoded)
	if packed*2 > decoded {
		t.Fatalf("resident traces take %d bytes, more than half the %d decoded", packed, decoded)
	}
}

// TestConcurrentReplaysShareTrace runs several replays of one trace in
// parallel; `go test -race` turns any mutation of the shared trace (or of
// its kernel) into a failure.
func TestConcurrentReplaysShareTrace(t *testing.T) {
	k, err := asm.Assemble("tid", tidKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	kc := *k
	g, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, lt, err := g.Record(isa.Launch{Kernel: &kc, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64}})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := replayTestConfigs()
	errs := make(chan error, len(cfgs))
	for _, c := range cfgs {
		go func(c Config) {
			gR, err := New(c)
			if err == nil {
				_, err = gR.Replay(lt)
			}
			errs <- err
		}(c)
	}
	for range cfgs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceModesRejectFaultConfigs: fault injection mutates functional
// state at commit time, so both record and replay refuse it with a typed
// ConfigError.
func TestTraceModesRejectFaultConfigs(t *testing.T) {
	c := testConfig()
	c.Compression = "off"
	c.PowerGating = false
	c.Faults = faults.Config{StuckAtBanks: 1, Seed: 7}
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	var ce *ConfigError
	if _, _, err := g.Record(isa.Launch{}); !errors.As(err, &ce) || ce.Field != "Faults" {
		t.Fatalf("Record under faults: got %v, want *ConfigError{Field: Faults}", err)
	}
	if _, err := g.Replay(&exectrace.Launch{}); !errors.As(err, &ce) || ce.Field != "Faults" {
		t.Fatalf("Replay under faults: got %v, want *ConfigError{Field: Faults}", err)
	}
}

// TestRecordRejectsAtomicAliasing: a launch that loads or stores a cell
// that is also touched atomically has a schedule-dependent value stream —
// the replayer's shadow atomic memory cannot see the non-atomic traffic.
// Record must detect the mix and refuse with ErrUntraceable (callers fall
// back to execute mode) rather than capture a trace that replays wrong.
func TestRecordRejectsAtomicAliasing(t *testing.T) {
	const src = `
.kernel alias
	mov r0, %tid.x
	and r1, r0, 7
	shl r1, r1, 2
	atom.add r2, [r1], 1
	ld.global r3, [r1]
	st.global [r1], r3
	exit
`
	k, err := asm.Assemble("alias", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}}
	if _, _, err := g.Record(l); !errors.Is(err, ErrUntraceable) {
		t.Fatalf("Record of atomic/non-atomic aliasing kernel: got %v, want ErrUntraceable", err)
	}
	// The same launch still runs fine in plain execute mode.
	if _, err := g.Run(l); err != nil {
		t.Fatalf("execute mode of the same launch: %v", err)
	}
}

// TestRecordRejectsCrossWarpRace: a cell one warp loads while another warp
// stores it has a schedule-dependent value stream — SM count, epoch and
// latencies decide which value the load sees. Record refuses it with
// ErrUntraceable, whether both warps share an SM (the issue-time check) or
// not (the merge in finish, which names the lowest racy address). A warp
// that loads and stores only its own cells stays traceable.
func TestRecordRejectsCrossWarpRace(t *testing.T) {
	for _, tc := range []struct {
		name, src   string
		grid, block int
		want        string // error substring; "" = traceable
	}{
		{"own-cells", steadyBoundedSrc, 2, 64, ""},
		{"same-sm", `
	mov  r0, %tid.x
	mov  r2, 64
	setp.eq p0, r0, 0
@p0	st.global [r2], r0
	ld.global r1, [r2]
	exit
`, 1, 64, "address 0x40"},
		{"cross-sm", `
	mov  r0, %ctaid.x
	mov  r2, 96
	mov  r3, 64
	setp.eq p0, r0, 0
@p0	st.global [r2], r0
@p0	st.global [r3], r0
@!p0	ld.global r1, [r2]
@!p0	ld.global r1, [r3]
	exit
`, 2, 32, "address 0x40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := asm.Assemble(tc.name, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			g, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			l := isa.Launch{Kernel: k, Grid: isa.Dim3{X: tc.grid}, Block: isa.Dim3{X: tc.block}}
			_, _, err = g.Record(l)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Record: %v", err)
			case tc.want != "" && (!errors.Is(err, ErrUntraceable) || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Record: got %v, want ErrUntraceable naming %s", err, tc.want)
			}
		})
	}
}
