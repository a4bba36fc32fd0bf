package exectrace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// fixtureTrace is a tiny hand-built but fully valid trace: one launch of a
// one-CTA, one-warp kernel with a register write whose value vector
// exercises the inter-lane delta encoding.
func fixtureTrace() *Trace {
	k := &isa.Kernel{
		Name: "fixture",
		Code: []isa.Instr{
			{Op: isa.OpMov, Dst: 0, PDst: isa.PredNone, Pred: isa.PredNone, PSrc: isa.PredNone,
				Srcs: [3]isa.Operand{{Kind: isa.OperandSpecial, Spec: isa.SpecTidX}}},
			{Op: isa.OpExit, Dst: isa.RegNone, PDst: isa.PredNone, Pred: isa.PredNone, PSrc: isa.PredNone},
		},
		NumRegs: 1,
	}
	var vals core.WarpReg
	for i := range vals {
		vals[i] = uint32(i)
	}
	full := uint32(0xFFFFFFFF)
	return &Trace{
		Meta: Meta{Benchmark: "fixture", Scale: "small"},
		Launches: []*Launch{{
			Kernel: k,
			Grid:   isa.Dim3{X: 1},
			Block:  isa.Dim3{X: 32},
			Warps: []*WarpStream{{
				Recs: []Rec{
					{PC: 0, Active: full, Eff: full, Flags: FlagWrites | FlagVals},
					{PC: 1, Active: full, Eff: full},
				},
				Vals: []core.WarpReg{vals},
			}},
		}},
	}
}

// TestTraceGolden pins the exact serialized bytes of a warped.trace/v1
// document — the magic line, the one-line JSON header and the varint body.
// Any diff is a wire-format change and requires a schema version bump plus
// `go test ./internal/exectrace -update`.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fixtureTrace()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	golden := filepath.Join("testdata", "trace_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("trace bytes drifted from %s (run with -update if intended)\n got: %q\nwant: %q", golden, data, want)
	}

	// The header must open with the exact magic line followed by the JSON
	// meta line — the self-description contract external tools rely on.
	wantHeader := Schema + "\n" + `{"schema":"warped.trace/v1","benchmark":"fixture","scale":"small","launches":1}` + "\n"
	if !bytes.HasPrefix(data, []byte(wantHeader)) {
		t.Fatalf("header drifted:\n got: %q\nwant prefix: %q", data[:min(len(data), len(wantHeader)+8)], wantHeader)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := fixtureTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip changed the trace:\norig: %+v\ngot:  %+v", orig, got)
	}
	if got.Instructions() != 2 {
		t.Fatalf("Instructions() = %d, want 2", got.Instructions())
	}
	if got.MemBytes() <= 0 {
		t.Fatalf("MemBytes() = %d, want > 0", got.MemBytes())
	}
}

// TestReadRejectsCorruption: every truncation of a valid trace, and a few
// targeted corruptions, must fail with an error — never a panic, never a
// silently wrong trace.
func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fixtureTrace()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for n := 0; n < len(valid); n++ {
		if _, err := Read(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	bad := append([]byte(nil), valid...)
	bad[3] ^= 0xFF // corrupt the magic
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte(Schema + "\n{\"schema\":\"warped.trace/v9\",\"launches\":1}\n"))); err == nil {
		t.Fatal("mismatched header schema accepted")
	}
}

// TestValidateCatchesStructuralLies covers the invariants the replayer
// trusts: pool-length agreement, stream geometry, PC bounds, exit
// termination.
func TestValidateCatchesStructuralLies(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Trace)
	}{
		{"missing value pool entry", func(tr *Trace) { tr.Launches[0].Warps[0].Vals = nil }},
		{"pc out of bounds", func(tr *Trace) { tr.Launches[0].Warps[0].Recs[0].PC = 99 }},
		{"stream not ending at exit", func(tr *Trace) {
			ws := tr.Launches[0].Warps[0]
			ws.Recs = ws.Recs[:1]
		}},
		{"wrong warp count", func(tr *Trace) { tr.Launches[0].Block.X = 64 }},
		{"empty stream", func(tr *Trace) {
			ws := tr.Launches[0].Warps[0]
			ws.Recs, ws.Vals = nil, nil
		}},
		{"segments on non-memory op", func(tr *Trace) { tr.Launches[0].Warps[0].Recs[0].NSegs = 2 }},
		{"unsorted atom init", func(tr *Trace) {
			tr.Launches[0].AtomInit = []AtomCell{{Addr: 8}, {Addr: 4}}
		}},
		{"value payload on unchanged write", func(tr *Trace) {
			tr.Launches[0].Warps[0].Recs[0].Flags |= FlagUnchanged
		}},
	}
	for _, m := range mutations {
		tr := fixtureTrace()
		m.mut(tr)
		tr.Meta.Schema = Schema
		tr.Meta.Launches = len(tr.Launches)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a structurally invalid trace", m.name)
		}
	}
}

// TestSealValidates: Seal is the only check a recorded launch gets before
// replay trusts it, so it must refuse the structural lies Validate refuses
// in the decoded form, and leave the launch untouched when it does.
func TestSealValidates(t *testing.T) {
	full := uint32(0xFFFFFFFF)
	var vals core.WarpReg
	write := Rec{PC: 0, Active: full, Eff: full, Flags: FlagWrites | FlagVals}
	exit := Rec{PC: 1, Active: full, Eff: full}
	cases := []struct {
		name    string
		recs    []Rec
		segs    []uint32 // appended with the first record
		writers int
		ok      bool
	}{
		{"valid", []Rec{write, exit}, nil, 1, true},
		{"pc out of bounds", []Rec{{PC: 9, Active: full, Eff: full}, exit}, nil, 1, false},
		{"not ending at exit", []Rec{write}, nil, 1, false},
		{"empty stream", nil, nil, 1, false},
		{"segments without a memory op", []Rec{write, exit}, []uint32{128}, 1, false},
		{"wrong warp count", []Rec{write, exit}, nil, 2, false},
	}
	for _, c := range cases {
		l := *fixtureTrace().Launches[0]
		l.Warps = nil
		ws := make([]StreamWriter, c.writers)
		for i, r := range c.recs {
			var segs []uint32
			if i == 0 {
				segs = c.segs
			}
			ws[0].Append(r, &vals, segs, nil)
		}
		err := l.Seal(ws)
		if (err == nil) != c.ok {
			t.Errorf("%s: Seal returned %v, want ok=%v", c.name, err, c.ok)
		}
		if !c.ok && l.streams != nil {
			t.Errorf("%s: a refused Seal left streams on the launch", c.name)
		}
		if n := (&Trace{Launches: []*Launch{&l}}).Instructions(); c.ok && n != uint64(len(c.recs)) {
			t.Errorf("%s: sealed launch holds %d records, want %d", c.name, n, len(c.recs))
		}
	}
}
