package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	payload := []byte(`{"schema":"warped.sim.result/v1","cycles":42}`)
	if err := s.Put(NSResult, "small|bfs|cfg/v1:abc", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(NSResult, "small|bfs|cfg/v1:abc")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	if _, ok := s.Get(NSResult, "small|bfs|cfg/v1:other"); ok {
		t.Fatal("Get of an unwritten key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 write, 1 entry", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Fatalf("stats bytes = %d, want > payload size %d (entry includes header)", st.Bytes, len(payload))
	}
}

func TestPutReplacesExistingEntry(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(NSResult, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSResult, "k", []byte("newer-payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(NSResult, "k")
	if !ok || string(got) != "newer-payload" {
		t.Fatalf("Get = %q, %v; want the replacing payload", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after overwrite, want 1", st.Entries)
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(NSResult, fmt.Sprintf("key-%d", i), []byte(strings.Repeat("x", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(NSTrace, "trace-000007", []byte("trace payload")); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir, Options{})
	st := re.Stats()
	if st.Entries != 4 {
		t.Fatalf("reopened store indexes %d entries, want 4", st.Entries)
	}
	if got, ok := re.Get(NSResult, "key-1"); !ok || string(got) != strings.Repeat("x", 101) {
		t.Fatalf("reopened Get(key-1) = %q, %v", got, ok)
	}
	if keys := re.Keys(NSTrace); len(keys) != 1 || keys[0] != "trace-000007" {
		t.Fatalf("Keys(trace) = %v, want [trace-000007]", keys)
	}
	if keys := re.Keys(NSResult); len(keys) != 3 {
		t.Fatalf("Keys(result) = %v, want 3 keys", keys)
	}
}

// TestSharedDirectory: two Store handles over one directory (two workers on
// a shared filesystem). A write by one is readable by the other even though
// the reader's index has never seen the key — the disk probe is the
// fallback.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{})
	if err := a.Put(NSResult, "shared-key", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(NSResult, "shared-key")
	if !ok || string(got) != "from a" {
		t.Fatalf("peer Get = %q, %v; want the other handle's write", got, ok)
	}
	// And an entry GC'd by a peer degrades to a plain miss, not an error.
	if err := os.Remove(a.entryPath(NSResult, "shared-key")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(NSResult, "shared-key"); ok {
		t.Fatal("Get reported a hit for a file a peer deleted")
	}
	if st := b.Stats(); st.Quarantined != 0 {
		t.Fatalf("peer deletion quarantined %d entries, want 0 (plain miss)", st.Quarantined)
	}
}

// corrupt writes a mutated copy of the entry file for key.
func corrupt(t *testing.T, s *Store, ns, key string, mutate func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(ns, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(NSResult, "k", bytes.Repeat([]byte("payload"), 100)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, NSResult, "k", func(b []byte) []byte { return b[:len(b)-13] })

	if _, ok := s.Get(NSResult, "k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 1 quarantined, 1 miss", st)
	}
	if _, err := os.Stat(s.entryPath(NSResult, "k")); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still present at its path: %v", err)
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir holds %d files (%v), want the condemned entry", len(q), err)
	}
	// Degrade-to-recompute is stable: the next Get is a plain miss.
	if _, ok := s.Get(NSResult, "k"); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

func TestBitFlipFailsCRCAndQuarantines(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(NSResult, "k", bytes.Repeat([]byte{0xAB}, 256)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, NSResult, "k", func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	})
	if _, ok := s.Get(NSResult, "k"); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

// TestAliasedEntryQuarantined: an entry whose header names a different key
// (hash collision, or a file copied onto the wrong path) must never be
// served under the wrong identity.
func TestAliasedEntryQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(NSResult, "real-key", []byte("real payload")); err != nil {
		t.Fatal(err)
	}
	// Copy real-key's (internally consistent) entry onto other-key's path.
	data, err := os.ReadFile(s.entryPath(NSResult, "real-key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath(NSResult, "other-key"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSResult, "other-key"); ok {
		t.Fatal("entry served under a key its header does not name")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The real entry is untouched.
	if got, ok := s.Get(NSResult, "real-key"); !ok || string(got) != "real payload" {
		t.Fatalf("real entry damaged by the aliasing quarantine: %q, %v", got, ok)
	}
}

// TestPartialTmpFileCleanedAtOpen: a crash mid-write leaves a tmp file;
// the next Open must delete it and must not index it.
func TestPartialTmpFileCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{}) // create layout
	leftover := filepath.Join(dir, tmpDir, "deadbeef.1234.1")
	if err := os.WriteFile(leftover, []byte(EntrySchema+"\npartial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("partial tmp file survived Open: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("tmp leftover was indexed: %+v", st)
	}
}

// TestUnparseableFileQuarantinedAtOpen: junk dropped into a namespace
// directory is moved aside during the startup scan.
func TestUnparseableFileQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(NSResult, "good", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, NSResult, entryName("junk-key"))
	if err := os.WriteFile(junk, []byte("not a store entry at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	if st := re.Stats(); st.Entries != 1 {
		t.Fatalf("reopened store indexes %d entries, want only the good one", st.Entries)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("junk file still in the namespace dir: %v", err)
	}
	if got, ok := re.Get(NSResult, "good"); !ok || string(got) != "fine" {
		t.Fatalf("good entry lost during junk quarantine: %q, %v", got, ok)
	}
}

func TestBudgetGCEvictsLRUFirst(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("v"), 1000)
	// Entries run ~1.1KB with header; budget fits two, not three.
	s := open(t, dir, Options{BudgetBytes: 2500})
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(NSResult, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evicted != 1 || st.EvictedBytes == 0 {
		t.Fatalf("stats = %+v; want exactly 1 eviction with bytes accounted", st)
	}
	if _, ok := s.Get(NSResult, "a"); ok {
		t.Fatal("oldest entry 'a' survived budget pressure")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := s.Get(NSResult, k); !ok {
			t.Fatalf("entry %q evicted; want only the LRU victim gone", k)
		}
	}
	if st := s.Stats(); st.Bytes > 2500 {
		t.Fatalf("store holds %d bytes, over the 2500 budget", st.Bytes)
	}

	// A Get refreshes recency: touch b, add d — c (now LRU) is the victim.
	s.Get(NSResult, "b")
	if err := s.Put(NSResult, "d", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSResult, "c"); ok {
		t.Fatal("entry 'c' survived; LRU order ignored the refreshing Get")
	}
	if _, ok := s.Get(NSResult, "b"); !ok {
		t.Fatal("recently used entry 'b' evicted")
	}
}

// TestSingleOversizedEntryIsKept: an entry larger than the whole budget is
// still admitted (the store must be able to hold the result it just paid
// for); it is evicted when the next entry arrives.
func TestSingleOversizedEntryIsKept(t *testing.T) {
	s := open(t, t.TempDir(), Options{BudgetBytes: 100})
	big := bytes.Repeat([]byte("B"), 1000)
	if err := s.Put(NSResult, "big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSResult, "big"); !ok {
		t.Fatal("oversized entry evicted at its own admission")
	}
	if err := s.Put(NSResult, "next", []byte("n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSResult, "big"); ok {
		t.Fatal("oversized entry survived the next admission")
	}
}

// TestWriteFailureDegradesGracefully: when the disk goes away (ENOSPC,
// directory deleted), Put errors and counts it, and Get keeps answering
// misses — the caller computes instead.
func TestWriteFailureDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSResult, "k", []byte("p")); err == nil {
		t.Fatal("Put succeeded with the store directory gone")
	}
	if _, ok := s.Get(NSResult, "k"); ok {
		t.Fatal("Get reported a hit with the store directory gone")
	}
	st := s.Stats()
	if st.WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1", st.WriteErrors)
	}
}

// TestCallerQuarantine: the CRC can pass while the payload is semantically
// undecodable for the caller; Quarantine condemns such entries identically
// to CRC failures.
func TestCallerQuarantine(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(NSResult, "k", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	s.Quarantine(NSResult, "k", fmt.Errorf("payload does not unmarshal"))
	if _, ok := s.Get(NSResult, "k"); ok {
		t.Fatal("caller-quarantined entry still served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

func TestInvalidNamespaceRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, ns := range []string{"", ".", "..", "a/b", `a\b`, tmpDir, quarantineDir} {
		if err := s.Put(ns, "k", []byte("p")); err == nil {
			t.Fatalf("Put accepted invalid namespace %q", ns)
		}
		if _, ok := s.Get(ns, "k"); ok {
			t.Fatalf("Get accepted invalid namespace %q", ns)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), Options{BudgetBytes: 50_000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("key-%d", i%5)
				payload := bytes.Repeat([]byte{byte(i)}, 500)
				if err := s.Put(NSResult, key, payload); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(NSResult, key); ok && len(got) != 500 {
					t.Errorf("Get returned %d bytes, want 500", len(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTrackerPolicy(t *testing.T) {
	tr := NewTracker(0, 100)
	if ev := tr.Add("a", 40); len(ev) != 0 {
		t.Fatalf("eviction under budget: %v", ev)
	}
	tr.Add("b", 40)
	// Touch a so b becomes LRU.
	tr.Touch("a")
	ev := tr.Add("c", 40)
	if len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evicted %v, want [b] (LRU after touch)", ev)
	}
	if tr.Bytes() != 80 || tr.Len() != 2 {
		t.Fatalf("tracker at %d bytes / %d entries, want 80 / 2", tr.Bytes(), tr.Len())
	}
	// Replacing an entry re-accounts its size.
	tr.Add("a", 10)
	if tr.Bytes() != 50 {
		t.Fatalf("re-add accounting: %d bytes, want 50", tr.Bytes())
	}
	if got := tr.Remove("a"); got != 10 {
		t.Fatalf("Remove returned %d, want 10", got)
	}
	if tr.Remove("missing") != 0 {
		t.Fatal("Remove of unknown key returned non-zero")
	}
	// Unlimited tracker never evicts.
	un := NewTracker(0, 0)
	for i := 0; i < 100; i++ {
		if ev := un.Add(fmt.Sprintf("k%d", i), 1<<20); len(ev) != 0 {
			t.Fatalf("unlimited tracker evicted %v", ev)
		}
	}

	// Each bound alone and both together evict least recently used first,
	// and the key being admitted is never a victim — not even when it
	// alone exceeds the byte budget.
	type add struct {
		key     string
		size    int64
		evicted string // comma-joined victims, oldest first
	}
	for _, c := range []struct {
		name       string
		maxEntries int
		budget     int64
		adds       []add
		keys       string // survivors, least recently used first
	}{
		{"entries only", 2, 0, []add{
			{"a", 1 << 20, ""}, {"b", 1 << 20, ""}, {"c", 1 << 20, "a"}, {"b", 5, ""}, {"d", 5, "c"},
		}, "b,d"},
		{"bytes only", 0, 100, []add{
			{"a", 30, ""}, {"b", 30, ""}, {"c", 30, ""}, {"d", 30, "a"}, {"big", 500, "b,c,d"}, {"e", 1, "big"},
		}, "e"},
		{"both bounds", 3, 100, []add{
			{"a", 10, ""}, {"b", 10, ""}, {"c", 10, ""}, {"d", 10, "a"}, {"e", 90, "b,c"}, {"f", 200, "d,e"},
		}, "f"},
		{"admitted key over both", 1, 10, []add{
			{"a", 50, ""}, {"b", 50, "a"}, {"b", 60, ""},
		}, "b"},
	} {
		tr := NewTracker(c.maxEntries, c.budget)
		for _, a := range c.adds {
			ev := tr.Add(a.key, a.size)
			if got := strings.Join(ev, ","); got != a.evicted {
				t.Fatalf("%s: Add(%s, %d) evicted [%s], want [%s]", c.name, a.key, a.size, got, a.evicted)
			}
			for _, v := range ev {
				if v == a.key {
					t.Fatalf("%s: Add(%s) evicted the key it admitted", c.name, a.key)
				}
			}
		}
		if got := strings.Join(tr.Keys(), ","); got != c.keys {
			t.Fatalf("%s: survivors [%s], want [%s]", c.name, got, c.keys)
		}
	}
}

// TestReopenEvictionOrderIsWriteOrder: after a restart the rebuilt index
// must evict the stalest entries first, which requires mtime ordering at
// load.
func TestReopenEvictionOrderIsWriteOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	payload := bytes.Repeat([]byte("p"), 1000)
	for _, k := range []string{"old", "mid", "new"} {
		if err := s.Put(NSResult, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Make the write order unambiguous to the filesystem clock.
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"old", "mid", "new"} {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.entryPath(NSResult, k), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	re := open(t, dir, Options{BudgetBytes: 2500}) // fits two
	// Index load applies the budget on the next admission.
	if err := re.Put(NSResult, "newest", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(NSResult, "old"); ok {
		t.Fatal("stalest entry survived the tightened budget")
	}
	if _, ok := re.Get(NSResult, "new"); !ok {
		t.Fatal("freshest pre-restart entry evicted before staler ones")
	}
}

// FuzzStoreRead hammers the entry decoder with arbitrary bytes: it must
// reject malformation with an error — never panic, never return a payload
// whose checksum does not match its header.
func FuzzStoreRead(f *testing.F) {
	valid, err := encodeEntry(NSResult, "small|bfs|cfg/v1:abc", []byte(`{"cycles":42}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(EntrySchema + "\n"))
	f.Add([]byte(EntrySchema + "\n{}\n"))
	f.Add([]byte(EntrySchema + `{"key":"k","namespace":"result","len":0,"crc32c":"00000000"}` + "\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := decodeEntry(data)
		if err != nil {
			return
		}
		if int64(len(payload)) != hdr.Len {
			t.Fatalf("accepted entry with %d payload bytes, header says %d", len(payload), hdr.Len)
		}
		// Anything the decoder accepts must survive a re-encode/re-decode
		// round trip unchanged. (Byte-canonicality of the input is not
		// required: encoding/json matches header field names
		// case-insensitively, and the store only reads entries it wrote.)
		re, err := encodeEntry(hdr.Namespace, hdr.Key, payload)
		if err != nil {
			// encodeEntry validates the namespace; decodeEntry does not
			// (layout safety is enforced at Put/Get). Skip those inputs.
			return
		}
		hdr2, payload2, err := decodeEntry(re)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if hdr2.Key != hdr.Key || hdr2.Namespace != hdr.Namespace || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the entry: %+v vs %+v", hdr, hdr2)
		}
	})
}
