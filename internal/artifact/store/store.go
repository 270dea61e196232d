// Package store is the persistent tier of the artifact cache: a disk-backed
// content-addressed object store under -artifact-dir that survives the
// process, so repeated sweeps, CI runs and -compare gates across process
// boundaries hit warm artifacts instead of rebuilding them.
//
// Layout of a store directory:
//
//	index.wal        CRC'd, fsynced JSONL journal of put/del records — the
//	                 durable source of truth for what the store holds,
//	                 replayed (and compacted) at Open
//	objects/<kind>/<key>   blob files, each framed with a length + CRC32
//	quarantine/      corrupt blobs moved aside for post-mortem, never served
//	tmp/             in-flight writes (crash leftovers are swept at Open)
//	locks/           advisory flock files for cross-process build dedup
//
// Durability discipline: a Put writes the framed blob to tmp/, fsyncs it,
// renames it into objects/ (atomic), fsyncs the directory, and only then
// appends the put record to the index journal. A crash at any point leaves
// either a tmp leftover or an un-journaled orphan, both of which Open sweeps
// — the journal never references a blob that is not fully durable. Every Get
// re-verifies the blob's frame and checksum before returning a byte; a
// mismatch quarantines the entry, so a corrupted store degrades to a cold
// cache, never to a wrong artifact.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/parallel-frontend/pfe/internal/journal"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// Blob framing: every object file is magic | version | payload length |
// payload CRC32 | payload. The frame is what lets Get distinguish "this is
// the artifact that was put" from truncation, bit rot, or a foreign file.
const (
	blobMagic   = "PFEO"
	blobVersion = 1
	blobHeader  = 4 + 4 + 8 + 4
)

// walCompactFactor triggers index-journal compaction at Open when the
// journal holds this many times more records than live entries (dead del/dup
// records from previous runs' GC).
const walCompactFactor = 4

// indexRec is the journal's wire record: one put or del of a store entry.
type indexRec struct {
	Op    string `json:"op"` // "put" | "del"
	Kind  string `json:"kind,omitempty"`
	Key   string `json:"key"`
	Bytes int64  `json:"bytes,omitempty"`
}

// entry is one live object in the in-memory index.
type entry struct {
	kind, key string
	bytes     int64
	lastUse   int64 // in-process LRU clock (seeded from file mtime at Open)
}

// KindStats is one artifact kind's disk traffic.
type KindStats struct {
	Hits, Misses int64
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Dir      string
	Entries  int
	Bytes    int64
	MaxBytes int64

	Kinds map[string]KindStats

	Puts        int64
	PutErrors   int64
	Evictions   int64 // entries removed by GC under the byte budget
	Quarantined int64 // corrupt blobs moved aside
	Orphans     int64 // un-journaled files swept at Open
	TornTail    int64 // torn trailing journal records dropped at Open
	Rebuilt     bool  // index rebuilt from the directory (journal unreadable)
}

// Hits and Misses total the per-kind traffic.
func (s Stats) Hits() int64 {
	var n int64
	for _, k := range s.Kinds {
		n += k.Hits
	}
	return n
}

// Misses totals the per-kind miss counts.
func (s Stats) Misses() int64 {
	var n int64
	for _, k := range s.Kinds {
		n += k.Misses
	}
	return n
}

// Store is the persistent artifact store. All methods are safe for
// concurrent use, and every method is nil-safe (a nil *Store misses every
// lookup and drops every put), so callers thread an optional store without
// branching. Multiple processes may open the same directory concurrently:
// renames are atomic, journal appends are O_APPEND single writes, GC
// tolerates losing races, and BuildLock spans processes via flock.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	wal      *journal.Writer
	entries  map[string]*entry
	bytes    int64
	seq      int64
	pins     map[string]int
	building map[string]bool
	maps     [][]byte
	closed   bool

	hits, misses map[string]int64
	puts         int64
	putErrors    int64
	evictions    int64
	quarantined  int64
	orphans      int64
	tornTail     int64
	rebuilt      bool
}

// Open opens (creating if needed) the store at dir, bounded to maxBytes of
// blob payloads (0 = unbounded). It replays the index journal, reconciles it
// against the objects directory — un-journaled orphans from a crash
// mid-put are swept, journaled entries whose file vanished are dropped — and
// compacts the journal when it has accumulated dead records. A journal
// corrupted at rest (not merely torn at the tail) is quarantined and the
// index rebuilt from the directory, every blob still guarded by its own
// checksum on Get.
func Open(dir string, maxBytes int64) (*Store, error) {
	for _, sub := range []string{"objects", "quarantine", "tmp", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		pins:     map[string]int{},
		building: map[string]bool{},
		hits:     map[string]int64{},
		misses:   map[string]int64{},
	}
	unlock, err := dirLock(filepath.Join(dir, ".lock"))
	if err != nil {
		return nil, fmt.Errorf("store: locking %s: %w", dir, err)
	}
	defer unlock()

	// Sweep tmp leftovers: anything still here was a put that never renamed.
	if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(filepath.Join(dir, "tmp", t.Name()))
		}
	}

	walPath := filepath.Join(dir, "index.wal")
	var fromWal []indexRec
	if _, err := os.Stat(walPath); err == nil {
		_, torn, err := journal.Scan(walPath, func(payload []byte) error {
			var r indexRec
			if err := json.Unmarshal(payload, &r); err != nil {
				return fmt.Errorf("store: index record: %w", err)
			}
			fromWal = append(fromWal, r)
			return nil
		})
		if err != nil {
			// Corrupt at rest: quarantine the journal and fall back to the
			// directory; the per-blob checksums still guard every Get.
			s.rebuilt = true
			fromWal = nil
			os.Rename(walPath, filepath.Join(dir, "quarantine",
				fmt.Sprintf("index.wal.%d", time.Now().UnixNano())))
		}
		s.tornTail = int64(torn)
	}

	// The journal is the source of truth; the directory tells us which
	// entries actually survived (and their recency, via mtime).
	type fileInfo struct {
		size  int64
		mtime int64
	}
	onDisk := map[string]fileInfo{}
	kinds, _ := os.ReadDir(filepath.Join(dir, "objects"))
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(dir, "objects", kd.Name()))
		for _, f := range files {
			fi, err := f.Info()
			if err != nil {
				continue
			}
			onDisk[kd.Name()+"/"+f.Name()] = fileInfo{size: fi.Size(), mtime: fi.ModTime().UnixNano()}
		}
	}

	if s.rebuilt {
		// No trustworthy journal: adopt every file present.
		for id, fi := range onDisk {
			kind, name, _ := strings.Cut(id, "/")
			s.entries[id] = &entry{kind: kind, key: name, bytes: fi.size - blobHeader, lastUse: fi.mtime}
		}
	} else {
		live := map[string]indexRec{}
		for _, r := range fromWal {
			id := r.Kind + "/" + sanitize(r.Key)
			switch r.Op {
			case "put":
				live[id] = r
			case "del":
				delete(live, id)
			}
		}
		for id, r := range live {
			fi, ok := onDisk[id]
			if !ok {
				continue // journaled but gone (GC'd by a racing process, or lost)
			}
			s.entries[id] = &entry{kind: r.Kind, key: r.Key, bytes: r.Bytes, lastUse: fi.mtime}
		}
		// Orphans: durable files whose put record never made the journal (a
		// crash between rename and append). The journal is authoritative, so
		// they are swept and will be rebuilt on demand.
		for id := range onDisk {
			if s.entries[id] == nil {
				os.Remove(filepath.Join(dir, "objects", filepath.FromSlash(id)))
				s.orphans++
			}
		}
	}
	for _, e := range s.entries {
		s.bytes += e.bytes
		if e.lastUse > s.seq {
			s.seq = e.lastUse
		}
	}
	s.seq++

	// Compact: rewrite the journal as one put per live entry when it carries
	// dead weight (dels, duplicate puts, a rebuild, or entries that vanished).
	if s.rebuilt || s.tornTail > 0 || len(fromWal) != len(s.entries) ||
		len(fromWal) > walCompactFactor*(len(s.entries)+1) {
		if err := s.compactLocked(walPath); err != nil {
			return nil, err
		}
	} else {
		w, err := journal.Create(walPath)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.wal = w
	}
	s.gcLocked()
	return s, nil
}

// compactLocked rewrites the index journal from the in-memory index (temp
// file + rename, so a crash mid-compaction keeps the old journal) and leaves
// the store appending to the fresh one.
func (s *Store) compactLocked(walPath string) error {
	tmp := filepath.Join(s.dir, "tmp", "index.wal.compact")
	os.Remove(tmp)
	w, err := journal.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compacting index: %w", err)
	}
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := s.entries[id]
		if err := w.Append(indexRec{Op: "put", Kind: e.kind, Key: e.key, Bytes: e.bytes}); err != nil {
			w.Close()
			return fmt.Errorf("store: compacting index: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("store: compacting index: %w", err)
	}
	if err := os.Rename(tmp, walPath); err != nil {
		return fmt.Errorf("store: compacting index: %w", err)
	}
	nw, err := journal.Create(walPath)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.wal = nw
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// sanitize maps a cache key to a filesystem-safe object name.
func sanitize(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '+'
		}
	}, key)
}

func (s *Store) objectPath(kind, key string) string {
	return filepath.Join(s.dir, "objects", kind, sanitize(key))
}

// Get returns the payload stored under (kind, key) and whether it was
// present and intact. The returned bytes are memory-mapped read-only where
// the platform supports it and stay valid until Close — callers may
// reference them zero-copy (the tape codec does) but must not write to
// them. A frame or checksum mismatch quarantines the blob and reports a
// miss: the store never returns bytes it cannot prove are the ones put.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := kind + "/" + sanitize(key)
	e := s.entries[id]
	if e == nil {
		s.misses[kind]++
		return nil, false
	}
	path := s.objectPath(kind, key)
	data, err := s.mapFileLocked(path)
	if err != nil {
		// Vanished underneath us (a racing process GC'd it): drop the entry.
		s.dropLocked(id, e, false)
		s.misses[kind]++
		return nil, false
	}
	payload, err := checkFrame(data)
	if err != nil {
		s.quarantineLocked(id, e, path)
		s.misses[kind]++
		return nil, false
	}
	s.hits[kind]++
	e.lastUse = s.seq
	s.seq++
	now := time.Now()
	os.Chtimes(path, now, now) // persist recency for cross-process LRU
	return payload, true
}

// Has reports whether (kind, key) is present in the index, without touching
// the blob (no checksum verification, no recency update).
func (s *Store) Has(kind, key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[kind+"/"+sanitize(key)] != nil
}

// Put stores payload under (kind, key), replacing any previous blob. The
// write is durable (fsynced, atomically renamed, journaled) before Put
// returns nil. Put failures are counted but leave the store consistent —
// the entry simply stays absent.
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	framed := frame(payload)
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return s.putErr(fmt.Errorf("store: put %s/%s: %w", kind, key, err))
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(framed); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: put %s/%s: %w", kind, key, err))
	}
	final := s.objectPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: put %s/%s: %w", kind, key, err))
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: put %s/%s: %w", kind, key, err))
	}
	syncDir(filepath.Dir(final))

	s.mu.Lock()
	defer s.mu.Unlock()
	id := kind + "/" + sanitize(key)
	if old := s.entries[id]; old != nil {
		s.bytes -= old.bytes
	}
	e := &entry{kind: kind, key: key, bytes: int64(len(payload)), lastUse: s.seq}
	s.seq++
	s.entries[id] = e
	s.bytes += e.bytes
	s.puts++
	if s.wal != nil {
		// The blob is durable; now make the index say so. A crash before
		// this append leaves an orphan that the next Open sweeps.
		if err := s.wal.Append(indexRec{Op: "put", Kind: kind, Key: key, Bytes: e.bytes}); err != nil {
			s.putErrors++
			return err
		}
	}
	s.gcLocked()
	return nil
}

func (s *Store) putErr(err error) error {
	s.mu.Lock()
	s.putErrors++
	s.mu.Unlock()
	return err
}

// frame wraps payload in the store's blob frame.
func frame(payload []byte) []byte {
	out := make([]byte, blobHeader+len(payload))
	copy(out, blobMagic)
	binary.LittleEndian.PutUint32(out[4:], blobVersion)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[blobHeader:], payload)
	return out
}

// checkFrame validates a blob frame and returns the payload.
func checkFrame(data []byte) ([]byte, error) {
	if len(data) < blobHeader || string(data[:4]) != blobMagic {
		return nil, fmt.Errorf("store: bad blob frame")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != blobVersion {
		return nil, fmt.Errorf("store: blob version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-blobHeader) {
		return nil, fmt.Errorf("store: blob length %d, frame says %d", len(data)-blobHeader, n)
	}
	payload := data[blobHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:]) {
		return nil, fmt.Errorf("store: blob checksum mismatch")
	}
	return payload, nil
}

// quarantineLocked moves a corrupt blob aside and removes it from the index.
func (s *Store) quarantineLocked(id string, e *entry, path string) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s-%s-%d", e.kind, sanitize(e.key), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined++
	s.dropLocked(id, e, true)
}

// Quarantine moves (kind, key) aside explicitly. The cache layer calls this
// when a blob passes the store checksum but fails semantic decoding — the
// entry must never be served again.
func (s *Store) Quarantine(kind, key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := kind + "/" + sanitize(key)
	e := s.entries[id]
	if e == nil {
		return
	}
	s.quarantineLocked(id, e, s.objectPath(kind, key))
}

// dropLocked removes an entry from the index (journaling the deletion when
// journal is true; file removal is the caller's business).
func (s *Store) dropLocked(id string, e *entry, journalIt bool) {
	delete(s.entries, id)
	s.bytes -= e.bytes
	if journalIt && s.wal != nil {
		s.wal.Append(indexRec{Op: "del", Kind: e.kind, Key: e.key})
	}
}

// Pin marks (kind, key) immune to GC until a matching Unpin; pins nest.
// Callers pin entries whose mapped bytes are referenced long-term.
func (s *Store) Pin(kind, key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pins[kind+"/"+sanitize(key)]++
	s.mu.Unlock()
}

// Unpin releases one Pin.
func (s *Store) Unpin(kind, key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	id := kind + "/" + sanitize(key)
	if s.pins[id] > 1 {
		s.pins[id]--
	} else {
		delete(s.pins, id)
	}
	s.mu.Unlock()
}

// BuildLock serializes builds of (kind, key) across processes (advisory
// flock on a lock file) and marks the key in-flight so GC leaves it alone.
// It returns the unlock function; callers re-check the store after acquiring
// the lock, since another process may have completed the same build while
// they waited. On platforms without flock the lock degrades to the
// in-process mark (duplicate cross-process builds are wasteful, not wrong:
// both produce identical content-addressed artifacts).
func (s *Store) BuildLock(kind, key string) func() {
	if s == nil {
		return func() {}
	}
	id := kind + "/" + sanitize(key)
	s.mu.Lock()
	s.building[id] = true
	s.mu.Unlock()
	unlock, err := dirLock(filepath.Join(s.dir, "locks", sanitize(kind+"-"+key)+".lock"))
	return func() {
		if err == nil {
			unlock()
		}
		s.mu.Lock()
		delete(s.building, id)
		s.mu.Unlock()
	}
}

// GC evicts least-recently-used entries until the store is within its byte
// budget. Pinned and in-flight entries survive. Runs automatically after
// every Put; exported for tests and explicit maintenance.
func (s *Store) GC() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
}

func (s *Store) gcLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type victim struct {
		id string
		e  *entry
	}
	var order []victim
	for id, e := range s.entries {
		if s.pins[id] > 0 || s.building[id] {
			continue
		}
		order = append(order, victim{id, e})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].e.lastUse != order[j].e.lastUse {
			return order[i].e.lastUse < order[j].e.lastUse
		}
		return order[i].id < order[j].id // deterministic tie-break
	})
	for _, v := range order {
		if s.bytes <= s.maxBytes {
			break
		}
		os.Remove(s.objectPath(v.e.kind, v.e.key))
		s.dropLocked(v.id, v.e, true)
		s.evictions++
	}
}

// mapFileLocked maps path read-only (or reads it on platforms without mmap)
// and retains the mapping until Close.
func (s *Store) mapFileLocked(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		return []byte{}, nil
	}
	data, mapped, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, err
	}
	if mapped {
		s.maps = append(s.maps, data)
	}
	return data, nil
}

// Stats snapshots the store's traffic and footprint.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := map[string]KindStats{}
	for k, v := range s.hits {
		ks := kinds[k]
		ks.Hits = v
		kinds[k] = ks
	}
	for k, v := range s.misses {
		ks := kinds[k]
		ks.Misses = v
		kinds[k] = ks
	}
	return Stats{
		Dir:         s.dir,
		Entries:     len(s.entries),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
		Kinds:       kinds,
		Puts:        s.puts,
		PutErrors:   s.putErrors,
		Evictions:   s.evictions,
		Quarantined: s.quarantined,
		Orphans:     s.orphans,
		TornTail:    s.tornTail,
		Rebuilt:     s.rebuilt,
	}
}

// Register exposes the store on an obs metrics registry as
// pfe_artifact_disk_* counters and gauges.
func (s *Store) Register(r *obs.Registry) {
	if s == nil || r == nil {
		return
	}
	for _, kind := range []string{"program", "tape", "result", "report"} {
		kind := kind
		r.CounterFunc("pfe_artifact_disk_hits_total",
			"Persistent artifact store hits by kind.",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.hits[kind]) },
			"kind", kind)
		r.CounterFunc("pfe_artifact_disk_misses_total",
			"Persistent artifact store misses by kind.",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.misses[kind]) },
			"kind", kind)
	}
	r.GaugeFunc("pfe_artifact_disk_bytes",
		"Payload bytes held by the persistent artifact store.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.bytes) })
	r.GaugeFunc("pfe_artifact_disk_entries",
		"Live entries in the persistent artifact store.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.entries)) })
	r.CounterFunc("pfe_artifact_disk_evictions_total",
		"Entries evicted by the -artifact-disk byte budget (LRU).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.evictions) })
	r.CounterFunc("pfe_artifact_disk_quarantines_total",
		"Corrupt blobs detected and quarantined.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.quarantined) })
	r.CounterFunc("pfe_artifact_disk_put_errors_total",
		"Failed attempts to persist an artifact.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.putErrors) })
}

// Close releases the store: the index journal is closed and every live
// mapping unmapped. Bytes returned by Get (and artifacts decoded zero-copy
// from them, such as tapes) must not be used after Close.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, m := range s.maps {
		if err := munmap(m); err != nil && first == nil {
			first = err
		}
	}
	s.maps = nil
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable (best-effort: some platforms reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
