package exectrace

import (
	"encoding/binary"
	"slices"

	"repro/internal/core"
	"repro/internal/isa"
)

// The resident form. A recorded launch stays in memory as one packed byte
// stream per warp, which only this package reads or writes: the recorder
// appends to it through a StreamWriter, Seal and Pack validate it once, and
// the replayer and Write read it back through a Cursor.
//
// A record is one header byte followed by only the fields the header does
// not imply, each little-endian:
//
//	PC      4 bytes, unless it is the previous record's PC + 1
//	Active  4 bytes, unless it equals the previous record's Active
//	Eff     4 bytes, unless it equals Active
//	NSegs   1 byte, when nonzero
//	Deg     2 bytes, when nonzero
//
// and the three RecFlags bits ride in the header's top bits. A FlagVals
// record is followed by its value, stored the way warped-compression stores
// a register (paper §3: a warp register's lanes sit within a narrow delta
// of one base): a width byte w of 0, 1, 2 or 4, lane 0 in 4 bytes, then
// the 31 differences lane[i] - lane[i-1] as signed w-byte integers — the
// narrowest width that holds all of them. Segment lists and atomic
// operations stay plain slices beside the bytes.
const (
	hdrNextPC   = 1 << 0 // PC is the previous PC + 1
	hdrSameMask = 1 << 1 // Active equals the previous Active
	hdrEffAll   = 1 << 2 // Eff equals Active
	hdrSegs     = 1 << 3 // a segment count follows
	hdrDeg      = 1 << 4 // a degree follows
	hdrFlags    = 5      // RecFlags occupy the header from this bit up

	knownFlags = FlagWrites | FlagUnchanged | FlagVals
)

// Stream is one warp's recorded execution in the resident form. Its fields
// are unexported: a Stream exists only inside a launch that Seal or Pack
// validated, so the replayer can trust it without checking it again.
type Stream struct {
	recs  int    // record count
	buf   []byte // packed records, each followed by its value when it has one
	segs  []uint32
	atoms []AtomOp
}

// memBytes is the stream's resident footprint: its pools plus the Stream
// itself.
func (s *Stream) memBytes() int64 {
	return int64(len(s.buf)) + int64(len(s.segs))*4 + int64(len(s.atoms))*8 + 80
}

// StreamWriter appends records to one warp's stream in issue order. The
// zero value is an empty stream.
type StreamWriter struct {
	s          Stream
	prevPC     int32
	prevActive uint32
	started    bool
}

// Append adds one record. val is the record's merged destination vector
// and is read only when r carries FlagVals; segs and atoms are the record's
// entries in the segment and atomic pools.
func (w *StreamWriter) Append(r Rec, val *core.WarpReg, segs []uint32, atoms []AtomOp) {
	prevPC, prevActive := int32(-1), ^uint32(0)
	if w.started {
		prevPC, prevActive = w.prevPC, w.prevActive
	}
	w.started, w.prevPC, w.prevActive = true, r.PC, r.Active

	h := byte(r.Flags&knownFlags) << hdrFlags
	if r.PC == prevPC+1 {
		h |= hdrNextPC
	}
	if r.Active == prevActive {
		h |= hdrSameMask
	}
	if r.Eff == r.Active {
		h |= hdrEffAll
	}
	if r.NSegs != 0 {
		h |= hdrSegs
	}
	if r.Deg != 0 {
		h |= hdrDeg
	}
	b := append(w.s.buf, h)
	if h&hdrNextPC == 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.PC))
	}
	if h&hdrSameMask == 0 {
		b = binary.LittleEndian.AppendUint32(b, r.Active)
	}
	if h&hdrEffAll == 0 {
		b = binary.LittleEndian.AppendUint32(b, r.Eff)
	}
	if h&hdrSegs != 0 {
		b = append(b, r.NSegs)
	}
	if h&hdrDeg != 0 {
		b = binary.LittleEndian.AppendUint16(b, r.Deg)
	}
	if r.Flags&FlagVals != 0 {
		b = appendValue(b, val)
	}
	w.s.buf = b
	w.s.recs++
	w.s.segs = append(w.s.segs, segs...)
	w.s.atoms = append(w.s.atoms, atoms...)
}

// appendValue appends v as a width byte, lane 0 and 31 lane deltas of that
// width.
func appendValue(b []byte, v *core.WarpReg) []byte {
	var d [len(v) - 1]uint32
	var any, span uint32
	for i := range d {
		x := v[i+1] - v[i]
		d[i] = x
		any |= x
		span |= uint32(int32(x) ^ int32(x)>>31) // |x| for x >= 0, |x|-1 below
	}
	width := 4
	switch {
	case any == 0:
		width = 0
	case span < 1<<7:
		width = 1
	case span < 1<<15:
		width = 2
	}
	n := len(b)
	b = slices.Grow(b, 5+len(d)*width)[:n+5+len(d)*width]
	b[n] = byte(width)
	binary.LittleEndian.PutUint32(b[n+1:], v[0])
	out := b[n+5:]
	switch width {
	case 1:
		for i, x := range d {
			out[i] = byte(x)
		}
	case 2:
		for i, x := range d {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(x))
		}
	case 4:
		for i, x := range d {
			binary.LittleEndian.PutUint32(out[4*i:], x)
		}
	}
	return b
}

// sealed returns the written stream with exactly the capacity it uses, so
// a resident trace keeps no append slack.
func (w *StreamWriter) sealed() Stream {
	s := w.s
	s.buf = append([]byte(nil), s.buf...)
	s.segs = append([]uint32(nil), s.segs...)
	s.atoms = append([]AtomOp(nil), s.atoms...)
	return s
}

// Cursor reads one stream in order. Rec is the current record, the next
// one to issue; it is valid until Next.
type Cursor struct {
	Rec
	s    *Stream
	off  int // offset of the record after Rec
	val  int // offset of Rec's value, when it carries FlagVals
	left int // records after Rec
	seg  int // segment pool position
	atom int // atomic pool position
	done bool
}

// Reset points the cursor at the first record of s.
func (c *Cursor) Reset(s *Stream) {
	*c = Cursor{s: s, left: s.recs}
	c.Rec.PC, c.Rec.Active = -1, ^uint32(0)
	c.Next()
}

// Done reports whether every record has been read: Next found no record
// after the last one.
func (c *Cursor) Done() bool { return c.done }

// Next makes the following record current, or reports false when the
// stream has none.
func (c *Cursor) Next() bool {
	if c.left == 0 {
		c.done = true
		return false
	}
	c.left--
	b := c.s.buf[c.off:]
	h := b[0]
	i := 1
	if h&hdrNextPC != 0 {
		c.PC++
	} else {
		c.PC = int32(binary.LittleEndian.Uint32(b[i:]))
		i += 4
	}
	if h&hdrSameMask == 0 {
		c.Active = binary.LittleEndian.Uint32(b[i:])
		i += 4
	}
	if h&hdrEffAll != 0 {
		c.Eff = c.Active
	} else {
		c.Eff = binary.LittleEndian.Uint32(b[i:])
		i += 4
	}
	c.NSegs = 0
	if h&hdrSegs != 0 {
		c.NSegs = b[i]
		i++
	}
	c.Deg = 0
	if h&hdrDeg != 0 {
		c.Deg = binary.LittleEndian.Uint16(b[i:])
		i += 2
	}
	c.Flags = RecFlags(h >> hdrFlags)
	if c.Flags&FlagVals != 0 {
		c.val = c.off + i
		i += 5 + 31*int(b[i])
	}
	c.off += i
	return true
}

// Value decodes the current record's value into v. The record must carry
// FlagVals.
func (c *Cursor) Value(v *core.WarpReg) {
	b := c.s.buf[c.val:]
	x := binary.LittleEndian.Uint32(b[1:])
	v[0] = x
	switch d := b[5:]; b[0] {
	case 0:
		for i := 1; i < len(v); i++ {
			v[i] = x
		}
	case 1:
		d = d[:len(v)-1]
		for i, u := range d {
			x += uint32(int8(u))
			v[i+1] = x
		}
	case 2:
		d = d[:2*(len(v)-1)]
		for i := 1; i < len(v); i++ {
			x += uint32(int16(binary.LittleEndian.Uint16(d[2*i-2:])))
			v[i] = x
		}
	default:
		d = d[:4*(len(v)-1)]
		for i := 1; i < len(v); i++ {
			x += binary.LittleEndian.Uint32(d[4*i-4:])
			v[i] = x
		}
	}
}

// Segs takes the next n entries of the segment pool.
func (c *Cursor) Segs(n int) []uint32 {
	s := c.s.segs[c.seg : c.seg+n]
	c.seg += n
	return s
}

// Atoms takes the next n entries of the atomic pool.
func (c *Cursor) Atoms(n int) []AtomOp {
	a := c.s.atoms[c.atom : c.atom+n : c.atom+n]
	c.atom += n
	return a
}

// Seal validates the streams the writers hold, in (CTA, warp) order,
// against l's kernel and geometry, and makes them l's resident form. This
// is the only validation a recorded launch gets: replay trusts it. Seal
// consumes the writers: each gives up its buffers as its stream is copied
// out, so sealing never holds a launch's records twice.
func (l *Launch) Seal(ws []StreamWriter) error {
	streams := make([]Stream, len(ws))
	for i := range ws {
		streams[i] = ws[i].sealed()
		ws[i] = StreamWriter{}
	}
	p := *l
	p.Warps, p.streams = nil, streams
	if err := p.Validate(); err != nil {
		return err
	}
	*l = p
	return nil
}

// Pack returns l in the resident form: l itself when it already is, else a
// packed copy of its decoded streams, once they validate. This is the only
// validation a decoded launch gets on its way to the replayer.
func Pack(l *Launch) (*Launch, error) {
	if l.streams != nil {
		return l, nil
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	p := *l
	p.Warps, p.streams = nil, make([]Stream, len(l.Warps))
	for i, ws := range l.Warps {
		var w StreamWriter
		v := 0
		for _, r := range ws.Recs {
			var val *core.WarpReg
			if r.Flags&FlagVals != 0 {
				val = &ws.Vals[v]
				v++
			}
			w.Append(r, val, nil, nil)
		}
		w.s.segs, w.s.atoms = ws.Segs, ws.Atoms
		p.streams[i] = w.sealed()
	}
	return &p, nil
}

// Stream returns the resident stream of the i-th warp of the grid, in
// (CTA, warp) order. The launch must be packed.
func (l *Launch) Stream(i int) *Stream { return &l.streams[i] }

// validate checks one resident stream the way WarpStream.validate checks a
// decoded one; its value pool cannot disagree with its records, because
// each value follows its record.
func (s *Stream) validate(k *isa.Kernel) error {
	rc := recCheck{k: k}
	var c Cursor
	for c.Reset(s); !c.Done(); c.Next() {
		if err := rc.add(&c.Rec); err != nil {
			return err
		}
	}
	return rc.end(len(s.segs), len(s.atoms))
}
