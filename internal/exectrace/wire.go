package exectrace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/isa"
)

// Wire format, warped.trace/v1:
//
//	warped.trace/v1\n          ASCII magic line
//	{...}\n                    one-line canonical JSON Meta
//	<binary body>              varint-packed launches, Meta.Launches of them
//
// The body uses unsigned varints (binary.Uvarint) for counts and small
// fields, and zigzag varints for signed or delta-encoded quantities.
// Register-value vectors are inter-lane delta-encoded: lane 0 raw, each
// later lane as zigzag(lane[i] - lane[i-1]). Per the paper's value-locality
// observation most deltas are tiny, so the common vector costs a few bytes
// per lane instead of four. Segment lists and AtomInit addresses are
// likewise delta-encoded against their predecessor.
//
// The encoding is canonical — one Trace has exactly one byte serialization
// — which is what makes golden byte-stability tests and content-addressed
// trace caching possible.

// maxWireCount caps any single decoded element count so a forged header
// cannot make the reader allocate unbounded memory before validation. It
// comfortably exceeds any real trace dimension (the Medium suite's largest
// stream is under half a million records).
const maxWireCount = 1 << 27

type wireWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

func (e *wireWriter) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	e.buf = binary.AppendUvarint(e.buf[:0], v)
	_, e.err = e.w.Write(e.buf)
}

func (e *wireWriter) svarint(v int64) { e.uvarint(zigzag(v)) }
func (e *wireWriter) u32(v uint32)    { e.uvarint(uint64(v)) }
func (e *wireWriter) byte(v byte)     { e.uvarint(uint64(v)) }
func (e *wireWriter) count(n int)     { e.uvarint(uint64(n)) }

func (e *wireWriter) boolean(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *wireWriter) str(s string) {
	e.count(len(s))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write serializes the trace in warped.trace/v1 format. Every launch is
// written from the resident form, through a Cursor: a decoded launch is
// packed first, so a launch that does not validate is never written.
func Write(w io.Writer, t *Trace) error {
	t.Meta.Schema = Schema
	t.Meta.Launches = len(t.Launches)
	if len(t.Launches) == 0 {
		return fmt.Errorf("exectrace: trace has no launches")
	}
	packed := make([]*Launch, len(t.Launches))
	for i, l := range t.Launches {
		p, err := Pack(l)
		if err != nil {
			return fmt.Errorf("launch %d: %w", i, err)
		}
		packed[i] = p
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Schema + "\n"); err != nil {
		return err
	}
	meta, err := json.Marshal(t.Meta)
	if err != nil {
		return err
	}
	if _, err := bw.Write(append(meta, '\n')); err != nil {
		return err
	}
	e := &wireWriter{w: bw}
	for _, l := range packed {
		writeLaunch(e, l)
	}
	if e.err != nil {
		return fmt.Errorf("exectrace: write: %w", e.err)
	}
	return bw.Flush()
}

func writeLaunch(e *wireWriter, l *Launch) {
	k := l.Kernel
	e.str(k.Name)
	e.count(k.NumRegs)
	e.count(k.NumPreds)
	e.count(k.SharedBytes)
	e.count(len(k.Code))
	for i := range k.Code {
		writeInstr(e, &k.Code[i])
	}
	e.count(l.Grid.X)
	e.count(l.Grid.Y)
	e.count(l.Block.X)
	e.count(l.Block.Y)
	for _, p := range l.Params {
		e.u32(p)
	}
	e.count(len(l.AtomInit))
	prev := uint32(0)
	for i, c := range l.AtomInit {
		if i == 0 {
			e.u32(c.Addr)
		} else {
			e.u32(c.Addr - prev) // sorted ascending, so deltas are positive
		}
		prev = c.Addr
		e.u32(c.Val)
	}
	e.count(len(l.streams))
	warpsPerCTA := isa.Launch{Kernel: k, Grid: l.Grid, Block: l.Block}.WarpsPerCTA()
	for i := range l.streams {
		writeStream(e, &l.streams[i], i/warpsPerCTA, i%warpsPerCTA)
	}
}

func writeInstr(e *wireWriter, in *isa.Instr) {
	e.byte(byte(in.Op))
	e.byte(byte(in.Cmp))
	e.byte(byte(in.Dst))
	e.byte(byte(in.PDst))
	for _, s := range in.Srcs {
		e.byte(byte(s.Kind))
		e.byte(byte(s.Reg))
		e.svarint(int64(s.Imm))
		e.byte(byte(s.Spec))
	}
	e.byte(byte(in.Pred))
	e.boolean(in.PredNeg)
	e.byte(byte(in.PSrc))
	e.svarint(int64(in.Target))
	e.svarint(int64(in.Off))
}

// writeStream writes one resident stream: its records, then its values,
// each read back through a Cursor, then its segment and atomic pools.
func writeStream(e *wireWriter, s *Stream, ctaID, warpInCTA int) {
	e.count(ctaID)
	e.count(warpInCTA)
	e.count(s.recs)
	var c Cursor
	prevPC := int64(0)
	vals := 0
	for c.Reset(s); !c.Done(); c.Next() {
		e.svarint(int64(c.PC) - prevPC) // streams mostly fall through: delta is usually 1
		prevPC = int64(c.PC)
		e.u32(c.Active)
		e.u32(c.Eff)
		e.byte(byte(c.Flags))
		e.byte(c.NSegs)
		e.uvarint(uint64(c.Deg))
		if c.Flags&FlagVals != 0 {
			vals++
		}
	}
	e.count(vals)
	var v core.WarpReg
	for c.Reset(s); !c.Done(); c.Next() {
		if c.Flags&FlagVals == 0 {
			continue
		}
		c.Value(&v)
		e.u32(v[0])
		for lane := 1; lane < len(v); lane++ {
			e.svarint(int64(int32(v[lane])) - int64(int32(v[lane-1])))
		}
	}
	e.count(len(s.segs))
	prevSeg := int64(0)
	for _, seg := range s.segs {
		e.svarint(int64(seg) - prevSeg)
		prevSeg = int64(seg)
	}
	e.count(len(s.atoms))
	prevAddr := int64(0)
	for _, a := range s.atoms {
		e.svarint(int64(a.Addr) - prevAddr)
		prevAddr = int64(a.Addr)
		e.u32(a.Add)
	}
}

type wireReader struct {
	r   *bufio.Reader
	err error
}

func (d *wireReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *wireReader) svarint() int64 { return unzigzag(d.uvarint()) }

func (d *wireReader) u32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > (1<<32)-1 {
		d.err = fmt.Errorf("32-bit field overflows: %d", v)
	}
	return uint32(v)
}

func (d *wireReader) byte8() byte {
	v := d.uvarint()
	if d.err == nil && v > 0xFF {
		d.err = fmt.Errorf("byte field overflows: %d", v)
	}
	return byte(v)
}

func (d *wireReader) boolean() bool { return d.byte8() != 0 }

// count reads an element count and bounds it, so corrupt input cannot
// drive huge allocations.
func (d *wireReader) count() int {
	v := d.uvarint()
	if d.err == nil && v > maxWireCount {
		d.err = fmt.Errorf("count %d exceeds format limit %d", v, maxWireCount)
	}
	return int(v)
}

func (d *wireReader) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	if n > 1<<16 {
		d.err = fmt.Errorf("string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

// clampCap limits the initial capacity of count-prefixed slices: lengths
// still reach the decoded count via append, but a forged count cannot
// reserve gigabytes up front. Zero counts decode to nil slices so a
// write → read cycle reproduces the recorder's in-memory form exactly.
func clampCap(n int) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return n
}

func makeSlice[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	return make([]T, 0, clampCap(n))
}

// Read decodes and validates a warped.trace/v1 stream. The returned trace
// has passed Trace.Validate, so it is safe to hand directly to the
// replayer.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("exectrace: reading magic: %w", err)
	}
	if magic != Schema+"\n" {
		return nil, fmt.Errorf("exectrace: bad magic %q, want %q", magic, Schema)
	}
	metaLine, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("exectrace: reading header: %w", err)
	}
	t := &Trace{}
	if err := json.Unmarshal(metaLine, &t.Meta); err != nil {
		return nil, fmt.Errorf("exectrace: header: %w", err)
	}
	if t.Meta.Schema != Schema {
		return nil, fmt.Errorf("exectrace: header schema %q, want %q", t.Meta.Schema, Schema)
	}
	if t.Meta.Launches < 0 || t.Meta.Launches > 1<<16 {
		return nil, fmt.Errorf("exectrace: header declares %d launches", t.Meta.Launches)
	}
	d := &wireReader{r: br}
	for i := 0; i < t.Meta.Launches && d.err == nil; i++ {
		t.Launches = append(t.Launches, readLaunch(d))
	}
	if d.err != nil {
		return nil, fmt.Errorf("exectrace: read: %w", d.err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func readLaunch(d *wireReader) *Launch {
	l := &Launch{Kernel: &isa.Kernel{}}
	k := l.Kernel
	k.Name = d.str()
	k.NumRegs = d.count()
	k.NumPreds = d.count()
	k.SharedBytes = d.count()
	nCode := d.count()
	k.Code = makeSlice[isa.Instr](nCode)
	for i := 0; i < nCode && d.err == nil; i++ {
		k.Code = append(k.Code, readInstr(d))
	}
	l.Grid.X = d.count()
	l.Grid.Y = d.count()
	l.Block.X = d.count()
	l.Block.Y = d.count()
	for i := range l.Params {
		l.Params[i] = d.u32()
	}
	nInit := d.count()
	l.AtomInit = makeSlice[AtomCell](nInit)
	addr := uint32(0)
	for i := 0; i < nInit && d.err == nil; i++ {
		addr += d.u32()
		l.AtomInit = append(l.AtomInit, AtomCell{Addr: addr, Val: d.u32()})
	}
	nWarps := d.count()
	l.Warps = makeSlice[*WarpStream](nWarps)
	for i := 0; i < nWarps && d.err == nil; i++ {
		l.Warps = append(l.Warps, readStream(d))
	}
	return l
}

func readInstr(d *wireReader) isa.Instr {
	var in isa.Instr
	in.Op = isa.Opcode(d.byte8())
	in.Cmp = isa.CmpOp(d.byte8())
	in.Dst = isa.Reg(d.byte8())
	in.PDst = isa.PredReg(d.byte8())
	for i := range in.Srcs {
		in.Srcs[i].Kind = isa.OperandKind(d.byte8())
		in.Srcs[i].Reg = isa.Reg(d.byte8())
		imm := d.svarint()
		if d.err == nil && (imm < -1<<31 || imm > 1<<31-1) {
			d.err = fmt.Errorf("immediate %d overflows int32", imm)
		}
		in.Srcs[i].Imm = int32(imm)
		in.Srcs[i].Spec = isa.Special(d.byte8())
	}
	in.Pred = isa.PredReg(d.byte8())
	in.PredNeg = d.boolean()
	in.PSrc = isa.PredReg(d.byte8())
	tgt := d.svarint()
	off := d.svarint()
	if d.err == nil && (tgt < -1<<31 || tgt > 1<<31-1 || off < -1<<31 || off > 1<<31-1) {
		d.err = fmt.Errorf("branch field overflows int32")
	}
	in.Target = int32(tgt)
	in.Off = int32(off)
	return in
}

func readStream(d *wireReader) *WarpStream {
	ws := &WarpStream{}
	ws.CTAID = d.count()
	ws.WarpInCTA = d.count()
	nRecs := d.count()
	ws.Recs = makeSlice[Rec](nRecs)
	pc := int64(0)
	for i := 0; i < nRecs && d.err == nil; i++ {
		var r Rec
		pc += d.svarint()
		if d.err == nil && (pc < 0 || pc > 1<<31-1) {
			d.err = fmt.Errorf("rec %d: pc %d out of range", i, pc)
			break
		}
		r.PC = int32(pc)
		r.Active = d.u32()
		r.Eff = d.u32()
		r.Flags = RecFlags(d.byte8())
		r.NSegs = d.byte8()
		deg := d.uvarint()
		if d.err == nil && deg > 0xFFFF {
			d.err = fmt.Errorf("rec %d: degree %d overflows uint16", i, deg)
			break
		}
		r.Deg = uint16(deg)
		ws.Recs = append(ws.Recs, r)
	}
	nVals := d.count()
	ws.Vals = makeSlice[core.WarpReg](nVals)
	for i := 0; i < nVals && d.err == nil; i++ {
		var v core.WarpReg
		v[0] = d.u32()
		for lane := 1; lane < len(v); lane++ {
			v[lane] = uint32(int32(v[lane-1]) + int32(d.svarint()))
		}
		ws.Vals = append(ws.Vals, v)
	}
	nSegs := d.count()
	ws.Segs = makeSlice[uint32](nSegs)
	seg := int64(0)
	for i := 0; i < nSegs && d.err == nil; i++ {
		seg += d.svarint()
		ws.Segs = append(ws.Segs, uint32(seg))
	}
	nAtoms := d.count()
	ws.Atoms = makeSlice[AtomOp](nAtoms)
	aaddr := int64(0)
	for i := 0; i < nAtoms && d.err == nil; i++ {
		aaddr += d.svarint()
		ws.Atoms = append(ws.Atoms, AtomOp{Addr: uint32(aaddr), Add: d.u32()})
	}
	return ws
}
