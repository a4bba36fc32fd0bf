package jobs

import (
	"sync"

	"repro/internal/store"
)

// layer names the level of a tier that answered a lookup.
type layer int

const (
	fromMemory layer = iota
	fromDisk
)

// blobs is the part of *store.Store a tier calls; tests substitute a
// disk that stalls its reads.
type blobs interface {
	Get(ns, key string) ([]byte, bool)
	Put(ns, key string, payload []byte) error
	Quarantine(ns, key string, cause error)
}

// codec maps a tier's values to and from their disk payloads.
type codec[V any] struct {
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)
}

// tier is the memory → disk lookup every served artifact goes through: a
// memory map bounded by a store.Tracker in front of one namespace of the
// optional disk store. Results and recorded traces are each one tier.
//
// Its mutex is a leaf: it is never held across disk I/O or while taking
// another lock, so callers may hold the Manager's mutex around put or
// stats but must not hold it around get, which probes the disk.
type tier[V any] struct {
	size func(V) int64 // an entry's charge against the byte budget; nil charges 0

	disk  blobs // nil: memory only
	ns    string
	codec codec[V]
	spawn func(write func()) // runs one write-through off the caller's goroutine

	mu                      sync.Mutex
	mem                     map[string]tierEntry[V] // nil: no memory layer
	use                     *store.Tracker
	evictions, evictedBytes uint64
}

type tierEntry[V any] struct {
	v    V
	size int64
}

// newTier builds a memory-only tier holding at most maxEntries values and
// budget bytes (a budget <= 0 is no byte bound). maxEntries 0 means no
// memory layer at all: every get probes the disk and nothing is promoted.
func newTier[V any](maxEntries int, budget int64, size func(V) int64) *tier[V] {
	t := &tier[V]{size: size}
	if maxEntries != 0 {
		t.mem = make(map[string]tierEntry[V])
		t.use = store.NewTracker(maxEntries, budget)
	}
	return t
}

// backedBy puts namespace ns of disk behind the memory layer: misses are
// probed there, and puts are written through via spawn.
func (t *tier[V]) backedBy(disk blobs, ns string, c codec[V], spawn func(write func())) {
	t.disk, t.ns, t.codec, t.spawn = disk, ns, c, spawn
}

// get looks key up in memory, then on disk. A disk hit is promoted into
// memory. The mutex is dropped around the disk probe; a value put while
// the probe ran wins and is reported as a memory hit, so a lookup is
// answered by exactly one layer. A payload that passes the store's CRC
// but does not decode is quarantined and reported as a miss.
func (t *tier[V]) get(key string) (V, layer, bool) {
	t.mu.Lock()
	v, ok := t.lookupLocked(key)
	t.mu.Unlock()
	if ok || t.disk == nil {
		return v, fromMemory, ok
	}
	v, ok = t.load(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if mv, hit := t.lookupLocked(key); hit {
		return mv, fromMemory, true
	}
	if ok {
		t.admitLocked(key, v)
	}
	return v, fromDisk, ok
}

// put inserts key into memory and writes it through to disk
// asynchronously.
func (t *tier[V]) put(key string, v V) {
	t.mu.Lock()
	t.admitLocked(key, v)
	t.mu.Unlock()
	if t.disk == nil {
		return
	}
	t.spawn(func() {
		// Persistence is an optimization, never a job failure: errors are
		// absorbed here and counted by the store.
		if data, err := t.codec.encode(v); err == nil {
			_ = t.disk.Put(t.ns, key, data)
		}
	})
}

// load probes the disk for key. Called without t.mu: this is disk I/O.
func (t *tier[V]) load(key string) (V, bool) {
	var zero V
	data, ok := t.disk.Get(t.ns, key)
	if !ok {
		return zero, false
	}
	v, err := t.codec.decode(data)
	if err != nil {
		t.disk.Quarantine(t.ns, key, err)
		return zero, false
	}
	return v, true
}

func (t *tier[V]) lookupLocked(key string) (V, bool) {
	e, ok := t.mem[key]
	if ok {
		t.use.Touch(key)
	}
	return e.v, ok
}

func (t *tier[V]) admitLocked(key string, v V) {
	if t.mem == nil {
		return
	}
	var size int64
	if t.size != nil {
		size = t.size(v)
	}
	t.mem[key] = tierEntry[V]{v: v, size: size}
	for _, victim := range t.use.Add(key, size) {
		t.evictedBytes += uint64(t.mem[victim].size)
		t.evictions++
		delete(t.mem, victim)
	}
}

// tierStats is a snapshot of a tier's memory layer.
type tierStats struct {
	entries                 int
	bytes                   int64
	evictions, evictedBytes uint64
}

func (t *tier[V]) stats() tierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := tierStats{entries: len(t.mem), evictions: t.evictions, evictedBytes: t.evictedBytes}
	if t.use != nil {
		s.bytes = t.use.Bytes()
	}
	return s
}
