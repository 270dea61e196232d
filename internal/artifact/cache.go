package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/program"
)

// Kinds of cached artifacts, in Stats order.
const (
	kindProgram = iota
	kindTape
	kindResult
	kindWarm
	numKinds
)

var kindNames = [numKinds]string{"program", "tape", "result", "warm"}

// Stats is a point-in-time snapshot of a Cache's traffic and footprint.
type Stats struct {
	ProgramHits, ProgramMisses int64
	TapeHits, TapeMisses       int64
	ResultHits, ResultMisses   int64
	WarmHits, WarmMisses       int64

	Evictions int64 // entries removed by the byte cap
	Entries   int   // live entries
	Bytes     int64 // accounted footprint of live entries
	TapeBytes int64 // portion of Bytes holding tape payloads
	MaxBytes  int64 // configured cap (0 = unbounded)

	// TapeFallbackSteps counts instructions served by tape Readers' live
	// fallback (consumers reading past a truncated recording).
	TapeFallbackSteps int64
}

// Hits and Misses return the all-kind totals.
func (s Stats) Hits() int64 { return s.ProgramHits + s.TapeHits + s.ResultHits + s.WarmHits }
func (s Stats) Misses() int64 {
	return s.ProgramMisses + s.TapeMisses + s.ResultMisses + s.WarmMisses
}

// Cache is the content-addressed artifact cache. All methods are safe for
// concurrent use; a nil *Cache disables every lookup (misses without
// recording them), so callers can thread an optional cache without
// branching.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	entries   map[string]*entry
	lru       *list.List // ready entries, front = most recently used
	bytes     int64
	tapeBytes int64

	hits, misses [numKinds]int64
	evictions    int64

	tapeFallback atomic.Int64
}

// entry is one cached artifact. A pending entry (ready not yet closed) is
// in the map but not the LRU: concurrent requests for the same key block on
// ready instead of duplicating the build (single-flight), and the byte cap
// only governs completed artifacts.
type entry struct {
	kind  int
	val   any
	err   error
	bytes int64
	ready chan struct{}
	elem  *list.Element // nil while pending
	key   string
}

// New returns a cache bounded to maxBytes of accounted artifact footprint
// (least-recently-used artifacts are evicted past the cap; the cap never
// blocks an in-flight build). maxBytes <= 0 means unbounded.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
	}
}

// SpecHash returns the content address of a benchmark spec: every field of
// the generator input that determines the program image (and therefore the
// dynamic stream).
func SpecHash(spec program.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", spec)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Info describes how one artifact lookup was served, for span annotation:
// the content address used and whether the cache satisfied it
// (single-flight waiters that shared an in-progress build count as hits).
type Info struct {
	Key string
	Hit bool
}

// Program returns the built image for spec, building it on first use and
// sharing the same read-only *program.Program with every subsequent caller.
func (c *Cache) Program(spec program.Spec) (*program.Program, error) {
	p, _, err := c.ProgramInfo(spec)
	return p, err
}

// ProgramInfo is Program plus cache-hit provenance.
func (c *Cache) ProgramInfo(spec program.Spec) (*program.Program, Info, error) {
	if c == nil {
		p, err := program.Build(spec)
		return p, Info{}, err
	}
	key := "prog:" + SpecHash(spec)
	v, hit, err := c.get(key, kindProgram, func() (any, int64, error) {
		p, err := program.Build(spec)
		if err != nil {
			return nil, 0, err
		}
		return p, programBytes(p), nil
	})
	if err != nil {
		return nil, Info{Key: key}, err
	}
	return v.(*program.Program), Info{Key: key, Hit: hit}, nil
}

// Tape returns a recording of spec's dynamic stream covering at least
// minInsts instructions (or to halt), recording it on first use with
// Record, which emulates on a second goroutine while the caller encodes and
// returns only once both are done. The shared program image comes from the
// same cache.
func (c *Cache) Tape(spec program.Spec, minInsts uint64) (*Tape, error) {
	t, _, err := c.TapeInfo(spec, minInsts)
	return t, err
}

// TapeInfo is Tape plus cache-hit provenance.
func (c *Cache) TapeInfo(spec program.Spec, minInsts uint64) (*Tape, Info, error) {
	if c == nil {
		return nil, Info{}, fmt.Errorf("artifact: nil cache")
	}
	key := fmt.Sprintf("tape:%s:%d", SpecHash(spec), minInsts)
	v, hit, err := c.get(key, kindTape, func() (any, int64, error) {
		p, err := c.Program(spec)
		if err != nil {
			return nil, 0, err
		}
		t, err := Record(p, minInsts)
		if err != nil {
			return nil, 0, err
		}
		t.sink = &c.tapeFallback
		return t, t.Bytes() + t.IndexBytes() + 64, nil
	})
	if err != nil {
		return nil, Info{Key: key}, err
	}
	return v.(*Tape), Info{Key: key, Hit: hit}, nil
}

// WarmStateInfo returns the warmed state stored under key — an opaque value
// owned by the caller (see pfe's warm-state artifacts), which every caller
// only reads once it is built — building it with build on first use and
// charging it at the bytes build reports, with cache-hit provenance.
func (c *Cache) WarmStateInfo(key string, build func() (any, int64, error)) (any, Info, error) {
	if c == nil {
		v, _, err := build()
		return v, Info{}, err
	}
	v, hit, err := c.get(key, kindWarm, build)
	if err != nil {
		return nil, Info{Key: key}, err
	}
	return v, Info{Key: key, Hit: hit}, nil
}

// GetResult returns a previously memoized cell result (see PutResult). The
// value is opaque to the cache; callers own the key scheme and must treat
// returned values as immutable shared state.
func (c *Cache) GetResult(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries["res:"+key]; e != nil && e.elem != nil {
		c.lru.MoveToFront(e.elem)
		c.hits[kindResult]++
		return e.val, true
	}
	c.misses[kindResult]++
	return nil, false
}

// PutResult memoizes a completed cell result under key, accounted as bytes
// toward the cache cap. A key already present is left untouched (results
// are deterministic, so the first value is as good as any).
func (c *Cache) PutResult(key string, v any, bytes int64) {
	if c == nil {
		return
	}
	resKey := "res:" + key
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[resKey] != nil {
		return
	}
	e := &entry{kind: kindResult, val: v, bytes: bytes, key: resKey, ready: closedCh}
	c.insertReadyLocked(e)
}

var closedCh = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// get returns the artifact for key, running build exactly once per key even
// under concurrent callers (waiters block until the builder finishes and
// count as hits — they shared the one build — unless the build fails and
// serves them nothing). The second return reports whether the lookup was a
// hit. Build errors are returned to every waiter but not cached. A build
// that panics fails the same way, with an error naming the key and the
// panic value, and the panic goes on to the builder's caller.
func (c *Cache) get(key string, kind int, build func() (any, int64, error)) (any, bool, error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits[kind]++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The build this waiter joined failed: it was served nothing,
			// so its hit is taken back.
			c.mu.Lock()
			c.hits[kind]--
			c.mu.Unlock()
		}
		return e.val, true, e.err
	}
	e := &entry{kind: kind, key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses[kind]++
	c.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			c.settle(e, nil, 0, fmt.Errorf("artifact: building %s panicked: %v", key, v))
			panic(v)
		}
	}()
	val, bytes, err := build()
	c.settle(e, val, bytes, err)
	return val, false, err
}

// settle completes the pending entry e with its build's outcome and wakes
// its waiters. A failed build leaves the cache, so the next caller of its key
// builds afresh.
func (c *Cache) settle(e *entry, val any, bytes int64, err error) {
	c.mu.Lock()
	e.val, e.err, e.bytes = val, err, bytes
	if err != nil {
		delete(c.entries, e.key)
	} else {
		c.insertReadyLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
}

// insertReadyLocked accounts a completed entry and applies the byte cap.
// Eviction only considers other ready entries (pending builds are not in
// the LRU), and always keeps the entry just inserted: a cap smaller than
// one artifact degrades to "no reuse", never to a failure.
func (c *Cache) insertReadyLocked(e *entry) {
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	c.bytes += e.bytes
	if e.kind == kindTape {
		c.tapeBytes += e.bytes
	}
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		if back == nil || back.Value.(*entry) == e {
			break
		}
		victim := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		if victim.kind == kindTape {
			c.tapeBytes -= victim.bytes
		}
		c.evictions++
	}
}

// Stats snapshots the cache's traffic counters and footprint.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ProgramHits:       c.hits[kindProgram],
		ProgramMisses:     c.misses[kindProgram],
		TapeHits:          c.hits[kindTape],
		TapeMisses:        c.misses[kindTape],
		ResultHits:        c.hits[kindResult],
		ResultMisses:      c.misses[kindResult],
		WarmHits:          c.hits[kindWarm],
		WarmMisses:        c.misses[kindWarm],
		Evictions:         c.evictions,
		Entries:           len(c.entries),
		Bytes:             c.bytes,
		TapeBytes:         c.tapeBytes,
		MaxBytes:          c.maxBytes,
		TapeFallbackSteps: c.tapeFallback.Load(),
	}
}

// Register exposes the cache on an obs metrics registry:
// pfe_artifact_hits_total / pfe_artifact_misses_total (per artifact kind),
// pfe_artifact_evictions_total, pfe_artifact_bytes, pfe_artifact_tape_bytes
// and pfe_artifact_tape_fallback_steps_total.
func (c *Cache) Register(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	for k := 0; k < numKinds; k++ {
		k := k
		r.CounterFunc("pfe_artifact_hits_total",
			"Artifact cache hits by kind.",
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.hits[k]) },
			"kind", kindNames[k])
		r.CounterFunc("pfe_artifact_misses_total",
			"Artifact cache misses by kind.",
			func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.misses[k]) },
			"kind", kindNames[k])
	}
	r.CounterFunc("pfe_artifact_evictions_total",
		"Artifacts evicted by the -artifact-mem byte cap.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.evictions) })
	r.GaugeFunc("pfe_artifact_bytes",
		"Accounted footprint of live cached artifacts.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.bytes) })
	r.GaugeFunc("pfe_artifact_tape_bytes",
		"Portion of pfe_artifact_bytes holding oracle tape payloads.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.tapeBytes) })
	r.CounterFunc("pfe_artifact_tape_fallback_steps_total",
		"Instructions served by tape readers' live-emulation fallback.",
		func() float64 { return float64(c.tapeFallback.Load()) })
}

// programBytes estimates the resident footprint of a built program image.
func programBytes(p *program.Program) int64 {
	return int64(len(p.Data)) + int64(len(p.Image)) + int64(len(p.Code))*16 + 256
}
