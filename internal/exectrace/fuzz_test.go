package exectrace

import (
	"bytes"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// FuzzTraceRead hammers the warped.trace/v1 reader with arbitrary bytes:
// it must never panic or over-allocate, and anything it accepts must
// re-serialize canonically (write → read → write is a fixed point).
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, fixtureTrace()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(Schema + "\n{\"schema\":\"warped.trace/v1\",\"launches\":1}\n\xff\xff\xff\xff"))
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized trace failed to decode: %v", err)
		}
		var again bytes.Buffer
		if err := Write(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("serialization is not canonical: %d vs %d bytes", out.Len(), again.Len())
		}
	})
}

// fuzzBytes feeds a generator from fuzz input, reading zeros once it runs
// out.
type fuzzBytes []byte

func (b *fuzzBytes) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return x
}

func (b *fuzzBytes) u16() uint16 { return uint16(b.u8()) | uint16(b.u8())<<8 }
func (b *fuzzBytes) u32() uint32 { return uint32(b.u16()) | uint32(b.u16())<<16 }

// fuzzKernel has one instruction of every record shape: an ALU write, the
// global, atomic and shared memory ops, a branch and the exit.
const fuzzKernel = `
.shared 256
	add r1, r0, 1
	ld.global r2, [r1]
	st.global [r1], r2
	atom.add r3, [r1], 1
	ld.shared r4, [r1]
	st.shared [r1], r4
	bra L
L:
	exit
`

// fuzzLaunch builds a valid decoded launch from fuzz input: up to two CTAs
// of up to two warps, each stream up to 47 records long plus its exit,
// with jumping and falling-through PCs, full, partial and changing masks,
// segment counts up to 32, degrees up to 65535 and values in every width
// class.
func fuzzLaunch(t *testing.T, data []byte) *Launch {
	k, err := asm.Assemble("fuzz", fuzzKernel)
	if err != nil {
		t.Fatal(err)
	}
	b := fuzzBytes(data)
	l := &Launch{
		Kernel: k,
		Grid:   isa.Dim3{X: 1 + int(b.u8()%2)},
		Block:  isa.Dim3{X: 32 * (1 + int(b.u8()%2))},
	}
	l.Params[0] = b.u32()
	for n, addr := int(b.u8()%4), uint32(0); n > 0; n-- {
		addr += 1 + uint32(b.u8())
		l.AtomInit = append(l.AtomInit, AtomCell{Addr: addr, Val: b.u32()})
	}
	exit := int32(len(k.Code) - 1)
	warps := l.Grid.X * l.Block.X / isa.WarpSize
	for i := 0; i < warps; i++ {
		ws := &WarpStream{CTAID: i / (l.Block.X / isa.WarpSize), WarpInCTA: i % (l.Block.X / isa.WarpSize)}
		pc, active := int32(-1), ^uint32(0)
		for n := int(b.u8() % 48); n > 0; n-- {
			if pc+1 >= exit || b.u8()&1 == 0 {
				pc = int32(b.u8()) % exit
			} else {
				pc++
			}
			if b.u8()&1 == 0 {
				active = b.u32()
			}
			r := Rec{PC: pc, Active: active, Eff: active}
			if b.u8()&1 == 0 {
				r.Eff &= b.u32()
			}
			switch k.Code[pc].Op {
			case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
				r.NSegs = b.u8() % 33
				for j := 0; j < int(r.NSegs); j++ {
					ws.Segs = append(ws.Segs, b.u32())
				}
			case isa.OpLdS, isa.OpStS:
				r.Deg = b.u16()
				r.NSegs = b.u8() % uint8(1+bits.OnesCount32(r.Eff))
			}
			switch op := k.Code[pc].Op; {
			case op == isa.OpAtomAdd:
				r.Flags = []RecFlags{0, FlagWrites, FlagWrites | FlagUnchanged}[b.u8()%3]
				r.Deg = b.u16()
				for j := bits.OnesCount32(r.Eff); j > 0; j-- {
					ws.Atoms = append(ws.Atoms, AtomOp{Addr: b.u32(), Add: b.u32()})
				}
			case k.Code[pc].HasDst():
				r.Flags = []RecFlags{0, FlagWrites, FlagWrites | FlagUnchanged, FlagWrites | FlagVals}[b.u8()%4]
				if r.Flags&FlagVals != 0 {
					ws.Vals = append(ws.Vals, fuzzValue(&b))
				}
			}
			ws.Recs = append(ws.Recs, r)
		}
		ws.Recs = append(ws.Recs, Rec{PC: exit, Active: active, Eff: active})
		l.Warps = append(l.Warps, ws)
	}
	return l
}

// fuzzValue draws a register value whose lane deltas fall in one width
// class: none, one byte, two bytes or four.
func fuzzValue(b *fuzzBytes) core.WarpReg {
	var v core.WarpReg
	v[0] = b.u32()
	class := b.u8() % 4
	for i := 1; i < len(v); i++ {
		switch class {
		case 0:
			v[i] = v[0]
		case 1:
			v[i] = v[i-1] + uint32(int8(b.u8()))
		case 2:
			v[i] = v[i-1] + uint32(int16(b.u16()))
		default:
			v[i] = b.u32()
		}
	}
	return v
}

// unpack decodes a resident launch back into the decoded form through its
// cursors.
func unpack(p *Launch) *Launch {
	l := *p
	l.streams = nil
	warpsPerCTA := isa.Launch{Kernel: p.Kernel, Grid: p.Grid, Block: p.Block}.WarpsPerCTA()
	for i := range p.streams {
		s := &p.streams[i]
		ws := &WarpStream{CTAID: i / warpsPerCTA, WarpInCTA: i % warpsPerCTA}
		var c Cursor
		for c.Reset(s); !c.Done(); c.Next() {
			ws.Recs = append(ws.Recs, c.Rec)
			if c.Flags&FlagVals != 0 {
				var v core.WarpReg
				c.Value(&v)
				ws.Vals = append(ws.Vals, v)
			}
		}
		if len(s.segs) > 0 {
			ws.Segs = s.segs
		}
		if len(s.atoms) > 0 {
			ws.Atoms = s.atoms
		}
		l.Warps = append(l.Warps, ws)
	}
	return &l
}

// FuzzPackedStream checks the resident form against the decoded one: a
// valid decoded launch packs, unpacks to itself, writes the same bytes in
// both forms, and reads back as itself.
func FuzzPackedStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x01\x07\x00\x00\x00\x02\x05\x00\x2f\x01\x00\x03\x00\x01\x00\x01"))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x7f, 0x01, 0x00, 0x03}, 64))
	f.Add(bytes.Repeat([]byte{0x02, 0x11, 0xfe, 0x40, 0x07, 0x01, 0x00, 0x03, 0x02}, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzLaunch(t, data)
		p, err := Pack(l)
		if err != nil {
			t.Fatalf("Pack of a valid launch: %v", err)
		}
		if got := unpack(p); !reflect.DeepEqual(got, l) {
			t.Fatalf("unpack(Pack(l)) differs from l")
		}
		var dec, res bytes.Buffer
		if err := Write(&dec, &Trace{Launches: []*Launch{l}}); err != nil {
			t.Fatal(err)
		}
		if err := Write(&res, &Trace{Launches: []*Launch{p}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Bytes(), res.Bytes()) {
			t.Fatalf("decoded and resident forms write different bytes")
		}
		back, err := Read(&res)
		if err != nil {
			t.Fatalf("Read of written launch: %v", err)
		}
		if !reflect.DeepEqual(back.Launches[0], l) {
			t.Fatalf("Read returned a different launch")
		}
	})
}
