package mem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestGlobalLoadStore(t *testing.T) {
	g := NewGlobal(4096)
	if err := g.Store32(102, 0xDEADBEEF); err == nil {
		t.Fatal("unaligned store accepted")
	}
	if err := g.Store32(104, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(104)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("load %x %v", v, err)
	}
	if _, err := g.Load32(4096); err == nil {
		t.Fatal("out-of-bounds load accepted")
	}
	if _, err := g.Load32(4094); err == nil {
		t.Fatal("straddling load accepted")
	}
}

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal(1 << 16)
	a1, err := g.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := g.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if a1%SegmentBytes != 0 || a2%SegmentBytes != 0 {
		t.Fatalf("allocations not segment aligned: %d %d", a1, a2)
	}
	if a2 != a1+SegmentBytes {
		t.Fatalf("10-byte alloc should consume one segment, got %d -> %d", a1, a2)
	}
	if _, err := g.Alloc(1 << 20); err == nil {
		t.Fatal("oversized alloc accepted")
	}
	if _, err := g.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

// TestGlobalGrowthStopsAtFrontier: writing allocations as they are made
// (the pattern of every benchmark build) backs at most half as much again
// as the allocator frontier instead of up to twice it, and many small
// allocations still grow the backing geometrically.
func TestGlobalGrowthStopsAtFrontier(t *testing.T) {
	g := NewGlobal(64 << 20)
	for _, n := range []int{1 << 20, 1 << 20, 96 << 10} {
		a, err := g.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Store32(a+uint32(n)-4, 1); err != nil {
			t.Fatal(err)
		}
	}
	if brk := int(g.brk); len(g.data) > brk+brk/2 {
		t.Fatalf("backing %d bytes for a %d-byte frontier", len(g.data), brk)
	}

	g = NewGlobal(64 << 20)
	grows, last := 0, 0
	for i := 0; i < 20000; i++ {
		a, err := g.Alloc(SegmentBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Store32(a, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if len(g.data) != last {
			grows, last = grows+1, len(g.data)
		}
	}
	if grows > 40 {
		t.Fatalf("%d reallocations for 20000 small allocations; growth is not geometric", grows)
	}
	for i := 0; i < 20000; i++ {
		if v, _ := g.Load32(uint32(i * SegmentBytes)); v != uint32(i) {
			t.Fatalf("word %d = %d after growth", i, v)
		}
	}
}

func TestHostTransfers(t *testing.T) {
	g := NewGlobal(4096)
	ints := []int32{1, -2, 3}
	if err := g.WriteInt32(0, ints); err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadInt32(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if got[i] != ints[i] {
			t.Fatalf("int roundtrip: %v", got)
		}
	}
	fl := []float32{1.5, -0.25, 3e9}
	if err := g.WriteFloat32(128, fl); err != nil {
		t.Fatal(err)
	}
	gf, err := g.ReadFloat32(128, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fl {
		if gf[i] != fl[i] {
			t.Fatalf("float roundtrip: %v", gf)
		}
	}
}

func TestCoalescing(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	segments := func(mask uint32) int { return len(CoalesceSegmentList(&addrs, mask, nil)) }
	// Perfectly coalesced: 32 consecutive words = one 128B segment.
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if n := segments(0xFFFFFFFF); n != 1 {
		t.Fatalf("consecutive: %d segments, want 1", n)
	}
	// Stride-128: every lane its own segment.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if n := segments(0xFFFFFFFF); n != 32 {
		t.Fatalf("stride-128: %d segments, want 32", n)
	}
	// Mask limits the count.
	if n := segments(0x3); n != 2 {
		t.Fatalf("masked: %d segments, want 2", n)
	}
	// Broadcast: one segment.
	for i := range addrs {
		addrs[i] = 512
	}
	if n := segments(0xFFFFFFFF); n != 1 {
		t.Fatalf("broadcast: %d segments, want 1", n)
	}
	// Inactive warp: zero transactions.
	if n := segments(0); n != 0 {
		t.Fatalf("empty mask: %d segments, want 0", n)
	}
}

// TestCoalesceListAgreesWithCount: for random address patterns the segment
// list holds each segment an active lane touches exactly once, so its
// length is the distinct-segment count.
func TestCoalesceListAgreesWithCount(t *testing.T) {
	f := func(addrs [isa.WarpSize]uint32, mask uint32) bool {
		want := map[uint32]bool{}
		for lane, a := range addrs {
			if mask&(1<<lane) != 0 {
				want[a/SegmentBytes] = true
			}
		}
		list := CoalesceSegmentList(&addrs, mask, nil)
		got := map[uint32]bool{}
		for _, seg := range list {
			got[seg] = true
		}
		return len(list) == len(want) && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedConflicts(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	phases := func(mask uint32) int { return AnalyzeShared(&addrs, mask, SharedWordBytes).Phases }
	// Consecutive words: conflict-free (degree 1).
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if d := phases(0xFFFFFFFF); d != 1 {
		t.Fatalf("consecutive: degree %d, want 1", d)
	}
	// Stride-32 words: all lanes hit bank 0 -> 32-way conflict.
	for i := range addrs {
		addrs[i] = uint32(4 * 32 * i)
	}
	if d := phases(0xFFFFFFFF); d != 32 {
		t.Fatalf("stride-32: degree %d, want 32", d)
	}
	// Broadcast of one word: degree 1.
	for i := range addrs {
		addrs[i] = 64
	}
	if d := phases(0xFFFFFFFF); d != 1 {
		t.Fatalf("broadcast: degree %d, want 1", d)
	}
	if d := phases(0); d != 1 {
		t.Fatalf("empty mask: degree %d, want 1", d)
	}
}

func TestPipeLatencyAndBandwidth(t *testing.T) {
	p := NewPipe(100, 8)
	// One transaction at cycle 10: data at 110.
	r, ok := p.TryIssue(10, 1)
	if !ok || r != 110 {
		t.Fatalf("single txn ready at %d", r)
	}
	// Four more issue back to back (1/cycle): last at cycle 14 -> 114.
	r, ok = p.TryIssue(10, 4)
	if !ok || r != 114 {
		t.Fatalf("burst ready at %d, want 114", r)
	}
	// Capacity: 5 in flight, 4 more would exceed 8.
	if _, ok := p.TryIssue(10, 4); ok {
		t.Fatal("capacity exceeded but accepted")
	}
	// Three fit exactly.
	if _, ok := p.TryIssue(10, 3); !ok {
		t.Fatal("exact fit rejected")
	}
	// After completion the pipe drains.
	if _, ok := p.TryIssue(300, 8); !ok {
		t.Fatal("drained pipe rejected issue")
	}
	if p.Transactions() != 16 {
		t.Fatalf("transactions %d, want 16", p.Transactions())
	}
}

func TestPipeZeroTxns(t *testing.T) {
	p := NewPipe(100, 4)
	r, ok := p.TryIssue(42, 0)
	if !ok || r != 42 {
		t.Fatal("zero transactions should complete immediately")
	}
}

// refPipe is the original slice-filter memory pipe: every issue attempt
// re-filters the whole outstanding list. It is the reference model the
// ring-based Pipe must agree with call for call.
type refPipe struct {
	latency, maxInflight int
	inflight             []uint64
	nextFree, txns       uint64
}

func (p *refPipe) tryIssue(now uint64, txns int) (uint64, bool) {
	if txns <= 0 {
		return now, true
	}
	out := p.inflight[:0]
	for _, c := range p.inflight {
		if c > now {
			out = append(out, c)
		}
	}
	p.inflight = out
	if len(p.inflight)+txns > p.maxInflight {
		return 0, false
	}
	start := now
	if p.nextFree > start {
		start = p.nextFree
	}
	last := start + uint64(txns-1)
	p.nextFree = last + 1
	for i := 0; i < txns; i++ {
		p.inflight = append(p.inflight, start+uint64(i)+uint64(p.latency))
	}
	p.txns += uint64(txns)
	return last + uint64(p.latency), true
}

// firstAccept is the first cycle >= now at which the reference accepts a
// request of k transactions when nothing else issues (probed on a copy).
func (p *refPipe) firstAccept(now uint64, k int) uint64 {
	c := *p
	c.inflight = append([]uint64(nil), p.inflight...)
	for t := now; ; t++ {
		if _, ok := c.tryIssue(t, k); ok {
			return t
		}
	}
}

// TestPipeMatchesReference drives the ring pipe and the reference with the
// same random sequences — non-decreasing cycles, 0..32 transactions, small
// capacities (some below a full warp's 32 segments) — and requires identical
// (ready, ok) results and transaction totals. Before every call, RoomAt(k)
// must name exactly the first cycle at which the reference would accept k.
func TestPipeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		latency, capacity := 1+rng.Intn(24), 1+rng.Intn(40)
		p := NewPipe(latency, capacity)
		ref := &refPipe{latency: latency, maxInflight: capacity}
		now := uint64(rng.Intn(8))
		for op := 0; op < 300; op++ {
			if rng.Intn(100) == 0 {
				p.Reset()
				ref = &refPipe{latency: latency, maxInflight: capacity}
			}
			now += uint64(rng.Intn(4))
			k := rng.Intn(isa.WarpSize + 1)
			at := p.RoomAt(k)
			if k > capacity {
				if at != math.MaxUint64 {
					t.Fatalf("trial %d: RoomAt(%d) = %d with capacity %d, want never", trial, k, at, capacity)
				}
			} else if want := ref.firstAccept(now, k); max(at, now) != want {
				t.Fatalf("trial %d op %d: RoomAt(%d) = %d at cycle %d, reference first accepts at %d", trial, op, k, at, now, want)
			}
			r1, ok1 := p.TryIssue(now, k)
			r2, ok2 := ref.tryIssue(now, k)
			if r1 != r2 || ok1 != ok2 {
				t.Fatalf("trial %d op %d: TryIssue(%d, %d) = (%d, %v), reference (%d, %v)", trial, op, now, k, r1, ok1, r2, ok2)
			}
			if p.Transactions() != ref.txns {
				t.Fatalf("trial %d op %d: %d transactions, reference %d", trial, op, p.Transactions(), ref.txns)
			}
		}
	}
}

func TestCacheBasic(t *testing.T) {
	c := NewCache(2*SegmentBytes*2, 2) // 2 sets x 2 ways
	if c.Access(0) {
		t.Fatal("cold miss reported as hit")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	// Fill set 0 beyond associativity: segments 0, 2, 4 map to set 0.
	c.Access(2)
	c.Access(4) // evicts LRU (segment 0)
	if c.Access(0) {
		t.Fatal("evicted line reported as hit")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("stats %d/%d, want 1/4", hits, misses)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(SegmentBytes*2, 2) // 1 set x 2 ways
	c.Access(10)
	c.Access(20)
	c.Access(10) // refresh 10; 20 becomes LRU
	c.Access(30) // evicts 20
	if !c.Access(10) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(20) {
		t.Fatal("LRU line survived")
	}
}
