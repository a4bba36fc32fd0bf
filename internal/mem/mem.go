// Package mem provides the GPU memory substrate: functional global memory
// with a bump allocator for host data, warp-level access coalescing, shared
// memory bank-conflict analysis, and a simple latency/bandwidth pipe for
// timing global transactions.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SegmentBytes is the memory transaction granularity; a warp access is
// coalesced into 128-byte segments as on Fermi-class hardware.
const SegmentBytes = 128

// Global is the device global memory: a flat byte-addressable array plus a
// bump allocator so benchmarks can place their inputs.
//
// The backing store grows on demand: a fresh device is an empty slice, and
// the first store beyond the current backing doubles it (bounded by the
// configured capacity). Loads past the backing but within capacity read 0,
// exactly what an eagerly zeroed array would return, so the lazy growth is
// invisible to kernels — it only avoids zeroing (and committing) tens of
// megabytes per GPU when a workload touches a fraction of the device.
type Global struct {
	data []byte // backing store; len(data) <= size, grown on first store
	size int    // device capacity in bytes
	brk  uint32
}

// NewGlobal builds a device memory of `size` bytes (word aligned). No
// backing store is allocated until it is written.
func NewGlobal(size int) *Global {
	if size <= 0 || size%4 != 0 {
		panic("mem: global size must be a positive multiple of 4")
	}
	return &Global{size: size}
}

// Size returns the device memory capacity in bytes.
func (g *Global) Size() int { return g.size }

// Alloc reserves n bytes (rounded up to 128-byte alignment for clean
// coalescing) and returns the device address.
func (g *Global) Alloc(n int) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: negative allocation")
	}
	aligned := (uint32(n) + SegmentBytes - 1) &^ (SegmentBytes - 1)
	if int(g.brk)+int(aligned) > g.size {
		return 0, fmt.Errorf("mem: out of device memory (%d requested, %d free)", n, g.size-int(g.brk))
	}
	addr := g.brk
	g.brk += aligned
	return addr, nil
}

// Load32 reads a 32-bit word; addr must be 4-byte aligned and in bounds.
// Words beyond the lazily grown backing store (but within capacity) read 0.
func (g *Global) Load32(addr uint32) (uint32, error) {
	if addr%4 == 0 && int(addr)+4 <= len(g.data) {
		return binary.LittleEndian.Uint32(g.data[addr:]), nil
	}
	if err := g.check(addr); err != nil {
		return 0, err
	}
	return 0, nil // untouched memory is zero
}

// Store32 writes a 32-bit word, growing the backing store when the address
// lies beyond it.
func (g *Global) Store32(addr, v uint32) error {
	if addr%4 == 0 && int(addr)+4 <= len(g.data) {
		binary.LittleEndian.PutUint32(g.data[addr:], v)
		return nil
	}
	if err := g.check(addr); err != nil {
		return err
	}
	g.grow(int(addr) + 4)
	binary.LittleEndian.PutUint32(g.data[addr:], v)
	return nil
}

// grow extends the backing store to hold at least need bytes, doubling to
// amortize the copy; total zeroing over a run stays O(bytes touched).
// Doubling stops at the allocator frontier when the store lies below it:
// a benchmark writes its allocations as it makes them, and the last
// doubling would otherwise back up to twice the memory it ever uses. The
// step past len stays at least a half, so copies remain amortized when
// allocations arrive in small pieces.
func (g *Global) grow(need int) {
	newLen := len(g.data) * 2
	if brk := int(g.brk); need <= brk && newLen > brk {
		newLen = max(brk, len(g.data)+len(g.data)/2)
	}
	if newLen < need {
		newLen = need
	}
	if newLen < 4096 {
		newLen = 4096
	}
	if newLen > g.size {
		newLen = g.size
	}
	data := make([]byte, newLen)
	copy(data, g.data)
	g.data = data
}

// Check32 validates a 32-bit access (alignment and capacity) without
// touching memory. Callers that buffer stores for deferred application use
// it to surface access errors at issue time; a checked Store32 can then
// never fail.
func (g *Global) Check32(addr uint32) error { return g.check(addr) }

// Presize grows the backing store to the allocator's high-water mark, so
// every address handed out by Alloc is backed without further growth.
// Stores beyond the allocator frontier may still grow the backing lazily;
// callers that share the Global across goroutines must serialize those
// (concurrent loads against a non-growing backing are safe).
func (g *Global) Presize() {
	if int(g.brk) > len(g.data) {
		g.grow(int(g.brk))
	}
}

func (g *Global) check(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: unaligned access at 0x%x", addr)
	}
	if int(addr)+4 > g.size {
		return fmt.Errorf("mem: access at 0x%x beyond device memory (%d bytes)", addr, g.size)
	}
	return nil
}

// WriteInt32 copies host int32 data to device address addr.
func (g *Global) WriteInt32(addr uint32, vals []int32) error {
	for i, v := range vals {
		if err := g.Store32(addr+uint32(4*i), uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadInt32 copies n int32 words from device address addr to the host.
func (g *Global) ReadInt32(addr uint32, n int) ([]int32, error) {
	out := make([]int32, n)
	for i := range out {
		v, err := g.Load32(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = int32(v)
	}
	return out, nil
}

// WriteFloat32 copies host float32 data to device address addr.
func (g *Global) WriteFloat32(addr uint32, vals []float32) error {
	for i, v := range vals {
		if err := g.Store32(addr+uint32(4*i), math.Float32bits(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadFloat32 copies n float32 words from device address addr to the host.
func (g *Global) ReadFloat32(addr uint32, n int) ([]float32, error) {
	out := make([]float32, n)
	for i := range out {
		v, err := g.Load32(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = math.Float32frombits(v)
	}
	return out, nil
}

// Pipe is the global-memory timing model: transactions issue at one per
// cycle, each completes after Latency cycles, and at most MaxInflight may be
// outstanding.
//
// Outstanding completion cycles live in a fixed ring of MaxInflight slots.
// Every transaction starts at or after the previous one's start + 1 (the
// issue port frees one cycle after the last transaction it accepted), so
// completions are appended in strictly ascending order: the ring is always
// sorted, reaping only ever drops a prefix, and both reaping and RoomAt are
// O(1) per call amortized.
type Pipe struct {
	Latency     int
	MaxInflight int

	ring     []uint64 // completion cycles, oldest at head; len MaxInflight
	head, n  int      // oldest slot and count of outstanding transactions
	nextFree uint64   // next cycle the issue port is free
	txns     uint64
}

// NewPipe builds a memory pipe.
func NewPipe(latency, maxInflight int) *Pipe {
	if latency < 1 || maxInflight < 1 {
		panic("mem: pipe needs latency >= 1 and capacity >= 1")
	}
	return &Pipe{Latency: latency, MaxInflight: maxInflight, ring: make([]uint64, maxInflight)}
}

// Reset empties the pipe for a fresh launch, keeping the ring's storage.
func (p *Pipe) Reset() {
	p.head, p.n, p.nextFree, p.txns = 0, 0, 0, 0
}

// TryIssue attempts to issue `txns` transactions at cycle now; on success it
// returns the cycle the last transaction's data is available. Calls must be
// made with non-decreasing now.
func (p *Pipe) TryIssue(now uint64, txns int) (ready uint64, ok bool) {
	if txns <= 0 {
		return now, true
	}
	p.reap(now)
	if p.n+txns > p.MaxInflight {
		return 0, false
	}
	start := now
	if p.nextFree > start {
		start = p.nextFree
	}
	last := start + uint64(txns-1)
	p.nextFree = last + 1
	ready = last + uint64(p.Latency)
	tail := p.head + p.n
	for i := 0; i < txns; i++ {
		if tail >= p.MaxInflight {
			tail -= p.MaxInflight
		}
		p.ring[tail] = start + uint64(i) + uint64(p.Latency)
		tail++
	}
	p.n += txns
	p.txns += uint64(txns)
	return ready, true
}

// RoomAt returns the first cycle at which a request of `txns` transactions
// fits the pipe, assuming nothing else issues meanwhile: 0 when it fits
// already, math.MaxUint64 when it can never fit (txns > MaxInflight). The
// request fits once the oldest n+txns-MaxInflight outstanding transactions
// have completed, and the ring is sorted, so that is one slot's value.
func (p *Pipe) RoomAt(txns int) uint64 {
	over := p.n + txns - p.MaxInflight
	switch {
	case over <= 0:
		return 0
	case txns > p.MaxInflight:
		return math.MaxUint64
	}
	i := p.head + over - 1
	if i >= p.MaxInflight {
		i -= p.MaxInflight
	}
	return p.ring[i]
}

// Transactions returns the total transactions issued.
func (p *Pipe) Transactions() uint64 { return p.txns }

// reap drops completed transactions: a prefix of the sorted ring.
func (p *Pipe) reap(now uint64) {
	for p.n > 0 && p.ring[p.head] <= now {
		p.head++
		if p.head == p.MaxInflight {
			p.head = 0
		}
		p.n--
	}
}
