package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
)

func res(cycles uint64) *sim.Result { return &sim.Result{Cycles: cycles} }

// memoryGet is a lookup in a memory-only tier.
func memoryGet(t *testing.T, c *tier[*sim.Result], key string) (*sim.Result, bool) {
	t.Helper()
	r, from, ok := c.get(key)
	if ok && from != fromMemory {
		t.Fatalf("memory-only tier answered %q from layer %d", key, from)
	}
	return r, ok
}

func TestTierEvictsOldest(t *testing.T) {
	c := newTier[*sim.Result](2, 0, nil)
	c.put("a", res(1))
	c.put("b", res(2))
	c.put("c", res(3)) // evicts a
	if _, ok := memoryGet(t, c, "a"); ok {
		t.Fatal("a survived past capacity")
	}
	if r, ok := memoryGet(t, c, "b"); !ok || r.Cycles != 2 {
		t.Fatalf("b lost: %v %v", r, ok)
	}
	if s := c.stats(); s.entries != 2 || s.evictions != 1 {
		t.Fatalf("entries = %d, evictions = %d; want 2, 1", s.entries, s.evictions)
	}
}

func TestTierGetRefreshesRecency(t *testing.T) {
	c := newTier[*sim.Result](2, 0, nil)
	c.put("a", res(1))
	c.put("b", res(2))
	memoryGet(t, c, "a") // a is now most recent
	c.put("c", res(3))   // evicts b, not a
	if _, ok := memoryGet(t, c, "a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := memoryGet(t, c, "b"); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestTierPutRefreshesExisting(t *testing.T) {
	c := newTier[*sim.Result](2, 0, nil)
	c.put("a", res(1))
	c.put("a", res(9))
	if r, _ := memoryGet(t, c, "a"); r.Cycles != 9 {
		t.Fatalf("refresh lost: %d", r.Cycles)
	}
	if n := c.stats().entries; n != 1 {
		t.Fatalf("duplicate entry: entries = %d", n)
	}
}

func TestTierZeroCapDisablesMemory(t *testing.T) {
	c := newTier[*sim.Result](0, 0, nil)
	c.put("a", res(1))
	if _, ok := memoryGet(t, c, "a"); ok {
		t.Fatal("disabled memory layer returned a hit")
	}
	if n := c.stats().entries; n != 0 {
		t.Fatal("disabled memory layer stored an entry")
	}
}

// gatedDisk holds every Get until released, so a test can land a put in
// the window where a lookup has dropped the tier's mutex to probe disk.
type gatedDisk struct {
	blobs
	once    sync.Once
	probing chan struct{}
	release chan struct{}
}

func (d *gatedDisk) Get(ns, key string) ([]byte, bool) {
	d.once.Do(func() { close(d.probing) })
	<-d.release
	return d.blobs.Get(ns, key)
}

// TestTierPutDuringDiskProbeWins: a result put while a submission probes
// the disk wins over the disk's answer, and the submission is counted once,
// as a memory hit — not as a miss and then a hit.
func TestTierPutDuringDiskProbeWins(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(context.Background(), Config{Workers: 1, QueueDepth: 4, CacheSize: 4, Store: st})
	defer m.Close()
	disk := &gatedDisk{blobs: st, probing: make(chan struct{}), release: make(chan struct{})}
	m.results.disk = disk

	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	type submitted struct {
		job *Job
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		j, err := m.SubmitRequest(Request{Benchmark: "zz-hold", Config: cfg})
		done <- submitted{j, err}
	}()
	select {
	case <-disk.probing:
	case <-time.After(30 * time.Second):
		t.Fatal("submission never probed the disk")
	}
	want := res(42)
	m.results.put(m.storeKey("zz-hold", experiments.ConfigSignature(&cfg)), want)
	close(disk.release)

	s := <-done
	if s.err != nil {
		t.Fatal(s.err)
	}
	if got, _ := s.job.Result(); got != want {
		t.Fatalf("served %+v, want the value put during the probe", got)
	}
	events, _, cancel := s.job.SubscribeFrom(-1)
	cancel()
	if len(events) != 1 || events[0].Kind != "cache-hit" {
		t.Fatalf("events = %+v, want a single cache-hit", events)
	}
	if stats := m.Stats(); stats.CacheHits != 1 || stats.CacheMisses != 0 || stats.StoreHits != 0 {
		t.Fatalf("hits/misses/store hits = %d/%d/%d, want 1/0/0",
			stats.CacheHits, stats.CacheMisses, stats.StoreHits)
	}
}

// TestTierConcurrentDiskBacked: lookups, puts, promotions and write-through
// persists from many goroutines at once on one disk-backed tier whose
// memory layer is smaller than its key set — the race detector's workout
// for the tier's lock protocol. Every hit must be the value put under its
// key.
func TestTierConcurrentDiskBacked(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var persists sync.WaitGroup
	c := newTier[*sim.Result](3, 0, nil)
	c.backedBy(st, store.NSResult, resultCodec, func(write func()) {
		persists.Add(1)
		go func() {
			defer persists.Done()
			write()
		}()
	})
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := (g + i) % len(keys)
				if i%3 == 0 {
					c.put(keys[n], res(uint64(n)))
					continue
				}
				if r, _, ok := c.get(keys[n]); ok && r.Cycles != uint64(n) {
					t.Errorf("%s served cycles %d, want %d", keys[n], r.Cycles, n)
				}
			}
		}(g)
	}
	wg.Wait()
	persists.Wait()
	if n := c.stats().entries; n > 3 {
		t.Fatalf("memory layer holds %d entries over its cap of 3", n)
	}
}
