// Package store is a disk-backed, content-addressed blob store that makes
// expensive simulation artifacts survive process lifetimes: completed
// warped.sim.result/v1 documents keyed by the cfg/v1
// experiments.ConfigSignature job key, and warped.trace/v1 recordings
// keyed by their trace refs. The serving layer (internal/jobs) puts it
// behind its in-memory tiers and writes through to it, so a restarted
// warpedd serves repeat sweeps from disk instead of re-simulating work the
// fleet already paid for.
//
// The durability contract:
//
//   - Writes are atomic: entries are staged in a tmp/ directory, fsynced,
//     and renamed into place; a crash mid-write leaves a tmp file that the
//     next Open deletes, never a half-visible entry.
//   - Reads are checked: every entry carries its full key and a CRC-32C of
//     the payload. A truncated, bit-rotten or aliased entry is moved to
//     quarantine/ and reported as a miss — the caller recomputes, and the
//     store never serves a wrong result.
//   - Capacity is a byte budget: least-recently-used entries are deleted
//     once the total exceeds it (the same Tracker policy every in-memory
//     cache uses), and evicted bytes are surfaced in Stats.
//
// Multiple processes may share one directory (workers on a common
// filesystem): an index miss probes the disk before reporting a miss, and
// entries deleted by a peer's GC are handled as ordinary misses. See
// DESIGN.md §16.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// EntrySchema is the magic line opening every entry file; readers reject
// anything else.
const EntrySchema = "warped.store/v1"

// Namespaces used by the serving layer. Namespaces are directories, so
// they must be single clean path elements.
const (
	NSResult = "result" // warped.sim.result/v1 JSON, keyed by scale|benchmark|cfg-sig
	NSTrace  = "trace"  // warped.trace/v1 blobs, keyed by trace ref
)

// reserved directory names that can never be namespaces.
const (
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// entryHeader is the one-line JSON header following the magic. It carries
// the full key so Open can rebuild the index without trusting file names,
// and so a hash collision (or a file renamed onto the wrong path) can
// never alias one key's payload to another.
type entryHeader struct {
	Key       string `json:"key"`
	Namespace string `json:"namespace"`
	Len       int64  `json:"len"`
	CRC32C    string `json:"crc32c"`
}

// Options tunes a Store. The zero value is usable.
type Options struct {
	// BudgetBytes bounds the total payload+header bytes on disk; once
	// exceeded, least-recently-used entries are deleted. <= 0 means no
	// budget (never evict).
	BudgetBytes int64
	// Log, when set, receives one line per quarantine and eviction.
	Log func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries int   // entries currently indexed
	Bytes   int64 // bytes currently indexed
	Budget  int64 // configured byte budget (0 = unlimited)

	Hits         uint64 // Gets served from a verified entry
	Misses       uint64 // Gets that found no (usable) entry
	Writes       uint64 // entries durably written
	WriteErrors  uint64 // Puts that failed (disk full, directory gone, ...)
	Quarantined  uint64 // corrupt entries moved aside instead of served
	Evicted      uint64 // entries deleted by budget pressure
	EvictedBytes uint64 // bytes reclaimed by budget pressure
}

// Store is the handle to one store directory. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	// mu guards only the tracker index and the counters. File I/O (reads,
	// the write/fsync/rename dance, eviction unlinks, quarantine moves)
	// happens outside it, so a slow disk never serializes every caller
	// behind one fsync. The file operations themselves are safe unlocked:
	// tmp names are process-unique, renames are atomic, and concurrent
	// writers to one key are last-rename-wins.
	mu      sync.Mutex
	tracker *Tracker

	hits, misses, writes, writeErrors uint64
	quarantined, evicted              uint64
	evictedBytes                      uint64

	tmpSeq atomic.Uint64
}

// Open initializes dir (creating it if needed), deletes partial tmp files
// left by a crashed writer, and rebuilds the index from the entries on
// disk — oldest file first, so pre-existing entries are the first GC
// victims.
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, tmpDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, opts: opts, tracker: NewTracker(0, opts.BudgetBytes)}

	// A tmp file is by definition an interrupted write: its entry was never
	// renamed into place, so the result it held was never promised to
	// anyone. Delete, don't salvage.
	tmps, err := os.ReadDir(filepath.Join(dir, tmpDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		if err := os.Remove(filepath.Join(dir, tmpDir, e.Name())); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: clearing tmp: %w", err)
		}
	}

	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// loadIndex scans every namespace directory and registers each entry whose
// header is structurally sound (full CRC verification is deferred to Get,
// so startup stays cheap). Files that are not even header-sound are
// quarantined immediately.
func (s *Store) loadIndex() error {
	root, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type found struct {
		ns, key string
		size    int64
		mtime   int64
	}
	var entries []found
	for _, d := range root {
		if !d.IsDir() || d.Name() == tmpDir || d.Name() == quarantineDir {
			continue
		}
		ns := d.Name()
		files, err := os.ReadDir(filepath.Join(s.dir, ns))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(s.dir, ns, f.Name())
			info, err := f.Info()
			if err != nil {
				continue // raced with a peer's GC
			}
			hdr, err := readHeader(path, info.Size())
			if err != nil || hdr.Namespace != ns || entryName(hdr.Key) != f.Name() {
				s.moveToQuarantine(path, fmt.Errorf("unindexable entry %s/%s: %v", ns, f.Name(), err))
				s.quarantined++
				continue
			}
			entries = append(entries, found{ns: ns, key: hdr.Key, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	// Oldest first: the tracker's LRU order starts as write order, so a
	// budget tightened across a restart evicts the stalest entries first.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].key < entries[j].key // deterministic tie-break
	})
	var victims []string
	s.mu.Lock()
	for _, e := range entries {
		victims = append(victims, s.tracker.Add(trackerKey(e.ns, e.key), e.size)...)
	}
	s.mu.Unlock()
	s.evict(victims)
	return nil
}

// readHeader reads and validates just the magic and header lines of an
// entry file, and checks that the declared payload length matches the file
// size — the cheap structural check used at startup.
func readHeader(path string, fileSize int64) (entryHeader, error) {
	var hdr entryHeader
	f, err := os.Open(path)
	if err != nil {
		return hdr, err
	}
	defer f.Close()
	// ReadFull, not a bare Read: a legal short read (interrupted syscall)
	// must not make a sound entry look header-truncated and get it
	// spuriously quarantined. EOF before the buffer fills just means the
	// file is smaller than headerLimit, which is the common case.
	head := make([]byte, headerLimit)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return hdr, err
	}
	head = head[:n]
	hdr, headerLen, err := parseHeader(head)
	if err != nil {
		return hdr, err
	}
	if int64(headerLen)+hdr.Len != fileSize {
		return hdr, fmt.Errorf("declares %d payload bytes but file holds %d", hdr.Len, fileSize-int64(headerLen))
	}
	return hdr, nil
}

// headerLimit bounds the magic + header prefix of an entry. Keys are short
// (config signatures run a few hundred bytes); anything past this is not a
// store entry.
const headerLimit = 64 << 10

// parseHeader decodes the magic and header lines from the start of an
// entry, returning the header and the byte offset where the payload
// begins.
func parseHeader(data []byte) (entryHeader, int, error) {
	var hdr entryHeader
	magicEnd := bytes.IndexByte(data, '\n')
	if magicEnd < 0 || string(data[:magicEnd]) != EntrySchema {
		return hdr, 0, fmt.Errorf("bad magic")
	}
	rest := data[magicEnd+1:]
	hdrEnd := bytes.IndexByte(rest, '\n')
	if hdrEnd < 0 {
		return hdr, 0, fmt.Errorf("missing header line")
	}
	dec := json.NewDecoder(bytes.NewReader(rest[:hdrEnd]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return hdr, 0, fmt.Errorf("header: %v", err)
	}
	if hdr.Key == "" || hdr.Namespace == "" || hdr.Len < 0 || len(hdr.CRC32C) != 8 {
		return hdr, 0, fmt.Errorf("header incomplete")
	}
	return hdr, magicEnd + 1 + hdrEnd + 1, nil
}

// decodeEntry parses and verifies a complete entry: magic, header, payload
// length and CRC. It is the read path's integrity core and the fuzz
// surface (FuzzStoreRead) — it must reject anything malformed with an
// error, never panic or return a payload that does not match its checksum.
func decodeEntry(data []byte) (entryHeader, []byte, error) {
	hdr, payloadOff, err := parseHeader(data)
	if err != nil {
		return hdr, nil, err
	}
	payload := data[payloadOff:]
	if int64(len(payload)) != hdr.Len {
		return hdr, nil, fmt.Errorf("payload is %d bytes, header declares %d", len(payload), hdr.Len)
	}
	sum := crc32.Checksum(payload, crcTable)
	if got := fmt.Sprintf("%08x", sum); got != hdr.CRC32C {
		return hdr, nil, fmt.Errorf("crc32c %s, header declares %s", got, hdr.CRC32C)
	}
	return hdr, payload, nil
}

// encodeEntry renders the canonical on-disk form of one entry.
func encodeEntry(ns, key string, payload []byte) ([]byte, error) {
	hdr, err := json.Marshal(entryHeader{
		Key:       key,
		Namespace: ns,
		Len:       int64(len(payload)),
		CRC32C:    fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable)),
	})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(EntrySchema)+1+len(hdr)+1+len(payload))
	buf = append(buf, EntrySchema...)
	buf = append(buf, '\n')
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	buf = append(buf, payload...)
	return buf, nil
}

// entryName is the content-addressed file name for a key: the hex SHA-256
// of the key. The full key is still stored in the entry header, so a
// (cryptographically implausible) hash collision is detected at read time
// rather than served.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) entryPath(ns, key string) string {
	return filepath.Join(s.dir, ns, entryName(key))
}

// trackerKey joins namespace and key into the Tracker's flat key space.
// \x00 cannot appear in either side, so the join is unambiguous.
func trackerKey(ns, key string) string { return ns + "\x00" + key }

func splitTrackerKey(tk string) (ns, key string) {
	i := strings.IndexByte(tk, 0)
	return tk[:i], tk[i+1:]
}

// validNamespace rejects namespaces that would escape the store directory
// or collide with its bookkeeping directories.
func validNamespace(ns string) error {
	if ns == "" || ns == tmpDir || ns == quarantineDir ||
		strings.ContainsAny(ns, "/\\") || ns == "." || ns == ".." {
		return fmt.Errorf("store: invalid namespace %q", ns)
	}
	return nil
}

// Get returns the verified payload stored under (ns, key). A missing entry
// is a plain miss. A present-but-corrupt entry (truncated, failed CRC,
// header naming a different key) is moved to quarantine/ and reported as a
// miss: degrading to recompute is always correct, serving a damaged result
// never is.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	if err := validNamespace(ns); err != nil {
		return nil, false
	}
	data, err := os.ReadFile(s.entryPath(ns, key))
	if err != nil {
		// Not on disk (never written, GC'd here, or GC'd by a peer
		// process sharing the directory): a plain miss.
		s.mu.Lock()
		s.tracker.Remove(trackerKey(ns, key))
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	hdr, payload, derr := decodeEntry(data)
	if derr != nil || hdr.Key != key || hdr.Namespace != ns {
		if derr == nil {
			derr = fmt.Errorf("entry header names %s/%q, want %s/%q", hdr.Namespace, hdr.Key, ns, key)
		}
		s.quarantine(ns, key, derr)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	// A hit may be the first sighting of an entry a peer process wrote;
	// admit it so the byte budget accounts for it.
	s.mu.Lock()
	victims := s.tracker.Add(trackerKey(ns, key), int64(len(data)))
	s.hits++
	s.mu.Unlock()
	s.evict(victims)
	return payload, true
}

// Put durably stores payload under (ns, key), replacing any previous
// entry, then applies the byte budget. The write is atomic: stage in tmp/,
// fsync, rename into place, fsync the namespace directory. On error the
// store is unchanged (callers degrade to memory-only operation) and the
// error is also counted in Stats.WriteErrors.
func (s *Store) Put(ns, key string, payload []byte) error {
	if err := validNamespace(ns); err != nil {
		return err
	}
	data, err := encodeEntry(ns, key, payload)
	if err != nil {
		s.mu.Lock()
		s.writeErrors++
		s.mu.Unlock()
		return fmt.Errorf("store: encode %s/%s: %w", ns, key, err)
	}

	if err := s.writeEntry(ns, key, data); err != nil {
		s.mu.Lock()
		s.writeErrors++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.writes++
	victims := s.tracker.Add(trackerKey(ns, key), int64(len(data)))
	s.mu.Unlock()
	s.evict(victims)
	return nil
}

// writeEntry performs the atomic tmp → rename → dir-fsync dance. It runs
// without s.mu: the tmp name is process-unique (pid + atomic sequence), the
// rename is atomic, and two concurrent writers to one key resolve as
// last-rename-wins — so the slow part (fsync) never blocks readers.
func (s *Store) writeEntry(ns, key string, data []byte) error {
	nsDir := filepath.Join(s.dir, ns)
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(s.dir, tmpDir, fmt.Sprintf("%s.%d.%d", entryName(key), os.Getpid(), s.tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s/%s: %w", ns, key, err)
	}
	final := filepath.Join(nsDir, entryName(key))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s/%s: %w", ns, key, err)
	}
	// fsync the directory so the rename itself survives a power cut.
	if err := syncDir(nsDir); err != nil {
		return fmt.Errorf("store: sync %s: %w", ns, err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// evict deletes budget victims (tracker keys already removed from the
// index) from disk and accounts the reclaimed bytes. Called without s.mu —
// eviction is file I/O.
func (s *Store) evict(victims []string) {
	for _, victim := range victims {
		vns, vkey := splitTrackerKey(victim)
		vpath := s.entryPath(vns, vkey)
		var reclaimed int64
		if info, err := os.Stat(vpath); err == nil {
			reclaimed = info.Size()
		}
		if err := os.Remove(vpath); err != nil && !os.IsNotExist(err) {
			s.logf("store: evicting %s/%s: %v", vns, vkey, err)
			continue
		}
		s.mu.Lock()
		s.evicted++
		s.evictedBytes += uint64(reclaimed)
		s.mu.Unlock()
		s.logf("store: evicted %s/%s (%d bytes) under budget pressure", vns, vkey, reclaimed)
	}
}

// Quarantine condemns the entry under (ns, key): the store's own CRC
// passed but the caller found the payload undecodable (e.g. a result
// document that no longer unmarshals). The file is moved aside and the
// quarantine counter incremented, exactly as for a CRC failure.
func (s *Store) Quarantine(ns, key string, cause error) {
	if validNamespace(ns) != nil {
		return
	}
	s.quarantine(ns, key, cause)
}

// quarantine drops the entry from the index and counts it under s.mu, then
// moves the file aside outside the lock.
func (s *Store) quarantine(ns, key string, cause error) {
	s.mu.Lock()
	s.tracker.Remove(trackerKey(ns, key))
	s.quarantined++
	s.mu.Unlock()
	s.moveToQuarantine(s.entryPath(ns, key), cause)
}

// moveToQuarantine moves a damaged file into quarantine/ for post-mortem,
// falling back to deletion if even the rename fails — a corrupt entry must
// never stay where the read path can find it.
func (s *Store) moveToQuarantine(path string, cause error) {
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(filepath.Dir(path))+"-"+filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.logf("store: quarantined %s: %v", path, cause)
}

// Keys lists every indexed key in ns, sorted. It reflects this process's
// index (plus entries discovered via Get), which is what restart recovery
// needs: the trace refs this store held when the process came up.
func (s *Store) Keys(ns string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, tk := range s.tracker.Keys() {
		tns, key := splitTrackerKey(tk)
		if tns == ns {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      s.tracker.Len(),
		Bytes:        s.tracker.Bytes(),
		Budget:       s.tracker.Budget(),
		Hits:         s.hits,
		Misses:       s.misses,
		Writes:       s.writes,
		WriteErrors:  s.writeErrors,
		Quarantined:  s.quarantined,
		Evicted:      s.evicted,
		EvictedBytes: s.evictedBytes,
	}
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}
