package store

import "container/list"

// Tracker is the one eviction policy of every bounded cache in the
// repository: the disk store, the serving layer's result and trace tiers
// and the experiment engine's trace cache. It bounds entries, bytes, or
// both; least-recently-used entries are evicted first while either bound
// is exceeded, and the entry being admitted is never its own victim — a
// cache must be able to hold at least the entry it just paid for, even
// when that single entry exceeds the whole budget.
//
// Tracker only decides; it never touches entry data. Callers apply the
// returned victim list to their own backing storage (delete files, drop
// map entries) and account the reclaimed bytes themselves. It is not safe
// for concurrent use; callers serialize access under their own mutex.
type Tracker struct {
	maxEntries int   // <= 0 means no entry bound
	budget     int64 // <= 0 means no byte bound
	total      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
}

type trackerItem struct {
	key  string
	size int64
}

// NewTracker builds a tracker holding at most maxEntries entries and
// budget bytes. A bound <= 0 is no bound; with both off the tracker never
// evicts but still accounts sizes.
func NewTracker(maxEntries int, budget int64) *Tracker {
	return &Tracker{maxEntries: maxEntries, budget: budget, ll: list.New(), items: make(map[string]*list.Element)}
}

// Add admits key at size (replacing any previous size for the same key),
// marks it most recently used, and returns the keys that must be evicted —
// least recently used first — to bring the tracker back within both
// bounds. The returned keys are already removed from the tracker; the
// freshly added key is never among them.
func (t *Tracker) Add(key string, size int64) (evicted []string) {
	if el, ok := t.items[key]; ok {
		it := el.Value.(*trackerItem)
		t.total += size - it.size
		it.size = size
		t.ll.MoveToFront(el)
	} else {
		t.items[key] = t.ll.PushFront(&trackerItem{key: key, size: size})
		t.total += size
	}
	for t.over() {
		oldest := t.ll.Back()
		it := oldest.Value.(*trackerItem)
		if it.key == key {
			break // never evict the entry being admitted
		}
		t.removeElement(oldest)
		evicted = append(evicted, it.key)
	}
	return evicted
}

func (t *Tracker) over() bool {
	return (t.maxEntries > 0 && t.ll.Len() > t.maxEntries) || (t.budget > 0 && t.total > t.budget)
}

// Touch marks key most recently used; unknown keys are ignored.
func (t *Tracker) Touch(key string) {
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
	}
}

// Remove forgets key and returns the bytes it accounted for (0 when
// unknown).
func (t *Tracker) Remove(key string) int64 {
	el, ok := t.items[key]
	if !ok {
		return 0
	}
	size := el.Value.(*trackerItem).size
	t.removeElement(el)
	return size
}

// Keys returns every tracked key, least recently used first.
func (t *Tracker) Keys() []string {
	out := make([]string, 0, t.ll.Len())
	for el := t.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*trackerItem).key)
	}
	return out
}

// Len is the number of tracked entries.
func (t *Tracker) Len() int { return t.ll.Len() }

// Bytes is the running size total.
func (t *Tracker) Bytes() int64 { return t.total }

// Budget is the configured byte budget (<= 0 means unlimited).
func (t *Tracker) Budget() int64 { return t.budget }

func (t *Tracker) removeElement(el *list.Element) {
	it := el.Value.(*trackerItem)
	t.ll.Remove(el)
	delete(t.items, it.key)
	t.total -= it.size
}
