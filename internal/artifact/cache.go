package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/parallel-frontend/pfe/internal/artifact/store"
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

// Cache is the content-addressed artifact store. All methods are safe for
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

	// Persistent tier (optional, see SetStore): misses fall through to the
	// store before building, completed builds are written back.
	store       *store.Store
	resultCodec ResultCodec
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
// the content address used and whether a cache tier satisfied it
// (single-flight waiters that shared an in-progress build count as hits).
type Info struct {
	Key string
	Hit bool
	// Source is which tier served the lookup: "mem-hit" (in-process cache),
	// "disk-hit" (persistent store), or "miss" (built fresh). Empty when the
	// lookup bypassed the cache entirely (nil *Cache).
	Source string
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
	source := "miss"
	v, hit, err := c.get(key, kindProgram, func() (any, int64, error) {
		if p, ok := c.diskProgram(key); ok {
			source = "disk-hit"
			return p, programBytes(p), nil
		}
		// Serialize the build across processes; whoever loses the race finds
		// the winner's artifact on disk when the lock is granted.
		unlock := c.store.BuildLock(storeKindProgram, key)
		defer unlock()
		// Re-check behind the lock (Has first, so a plain cold build does not
		// double-count the miss): the lock's previous holder may have
		// completed this exact build.
		if c.store.Has(storeKindProgram, key) {
			if p, ok := c.diskProgram(key); ok {
				source = "disk-hit"
				return p, programBytes(p), nil
			}
		}
		p, err := program.Build(spec)
		if err != nil {
			return nil, 0, err
		}
		if c.store != nil {
			if data, err := EncodeProgram(p); err == nil {
				c.store.Put(storeKindProgram, key, data)
			}
		}
		return p, programBytes(p), nil
	})
	if err != nil {
		return nil, Info{Key: key, Source: source}, err
	}
	if hit {
		source = "mem-hit"
	}
	return v.(*program.Program), Info{Key: key, Hit: source != "miss", Source: source}, nil
}

// Tape returns a recording of spec's dynamic stream covering at least
// minInsts instructions (or to halt), recording it on first use. The shared
// program image comes from the same cache.
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
	source := "miss"
	v, hit, err := c.get(key, kindTape, func() (any, int64, error) {
		p, err := c.Program(spec)
		if err != nil {
			return nil, 0, err
		}
		if t, ok := c.diskTape(key, p); ok {
			source = "disk-hit"
			return t, t.Bytes() + t.IndexBytes() + 64, nil
		}
		unlock := c.store.BuildLock(storeKindTape, key)
		defer unlock()
		if c.store.Has(storeKindTape, key) {
			if t, ok := c.diskTape(key, p); ok {
				source = "disk-hit"
				return t, t.Bytes() + t.IndexBytes() + 64, nil
			}
		}
		t, err := Record(p, minInsts)
		if err != nil {
			return nil, 0, err
		}
		t.sink = &c.tapeFallback
		if c.store != nil {
			c.store.Put(storeKindTape, key, EncodeTape(t))
		}
		return t, t.Bytes() + t.IndexBytes() + 64, nil
	})
	if err != nil {
		return nil, Info{Key: key, Source: source}, err
	}
	if hit {
		source = "mem-hit"
	}
	return v.(*Tape), Info{Key: key, Hit: source != "miss", Source: source}, nil
}

// WarmStateInfo returns the warm-state snapshot stored under key — an
// opaque, already-encoded byte blob owned by the caller's codec (see pfe's
// warm-state artifacts) — building it with build on first use, with
// cache-hit provenance. Lookups walk the same tier chain as every other
// artifact: in-process memory, the local disk store, then build (serialized
// across processes by the store's build lock, with the finished snapshot
// persisted so a later process restores instead of re-warming).
func (c *Cache) WarmStateInfo(key string, build func() ([]byte, error)) ([]byte, Info, error) {
	if c == nil {
		data, err := build()
		return data, Info{}, err
	}
	source := "miss"
	v, hit, err := c.get(key, kindWarm, func() (any, int64, error) {
		if data, ok := c.diskWarm(key); ok {
			source = "disk-hit"
			return data, int64(len(data)) + 64, nil
		}
		unlock := c.store.BuildLock(storeKindWarm, key)
		defer unlock()
		if c.store.Has(storeKindWarm, key) {
			if data, ok := c.diskWarm(key); ok {
				source = "disk-hit"
				return data, int64(len(data)) + 64, nil
			}
		}
		data, err := build()
		if err != nil {
			return nil, 0, err
		}
		if c.store != nil {
			c.store.Put(storeKindWarm, key, data)
		}
		return data, int64(len(data)) + 64, nil
	})
	if err != nil {
		return nil, Info{Key: key, Source: source}, err
	}
	if hit {
		source = "mem-hit"
	}
	return v.([]byte), Info{Key: key, Hit: source != "miss", Source: source}, nil
}

// GetResult returns a previously memoized cell result (see PutResult). The
// value is opaque to the cache; callers own the key scheme and must treat
// returned values as immutable shared state.
func (c *Cache) GetResult(key string) (any, bool) {
	v, _, ok := c.GetResultInfo(key)
	return v, ok
}

// GetResultInfo is GetResult plus tier provenance. A memory miss falls
// through to the persistent store (when attached with a ResultCodec); a disk
// hit is decoded and promoted into the memory tier so repeats stay cheap.
func (c *Cache) GetResultInfo(key string) (any, Info, bool) {
	if c == nil {
		return nil, Info{}, false
	}
	resKey := "res:" + key
	c.mu.Lock()
	if e := c.entries[resKey]; e != nil && e.elem != nil {
		c.lru.MoveToFront(e.elem)
		c.hits[kindResult]++
		c.mu.Unlock()
		return e.val, Info{Key: resKey, Hit: true, Source: "mem-hit"}, true
	}
	c.misses[kindResult]++
	c.mu.Unlock()

	if c.store != nil && c.resultCodec != nil {
		if data, ok := c.store.Get(storeKindResult, resKey); ok {
			v, bytes, err := c.resultCodec.DecodeResult(data)
			if err != nil {
				c.store.Quarantine(storeKindResult, resKey)
				return nil, Info{Key: resKey, Source: "miss"}, false
			}
			c.putResultMem(resKey, v, bytes)
			return v, Info{Key: resKey, Hit: true, Source: "disk-hit"}, true
		}
	}
	return nil, Info{Key: resKey, Source: "miss"}, false
}

// PutResult memoizes a completed cell result under key, accounted as bytes
// toward the cache cap, and persists it to the store when one is attached. A
// key already present is left untouched (results are deterministic, so the
// first value is as good as any).
func (c *Cache) PutResult(key string, v any, bytes int64) {
	if c == nil {
		return
	}
	resKey := "res:" + key
	c.putResultMem(resKey, v, bytes)
	if c.store != nil && c.resultCodec != nil && !c.store.Has(storeKindResult, resKey) {
		if data, err := c.resultCodec.EncodeResult(v); err == nil {
			c.store.Put(storeKindResult, resKey, data)
		}
	}
}

func (c *Cache) putResultMem(resKey string, v any, bytes int64) {
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
// count as hits — they shared the one build). The second return reports
// whether the lookup was a hit. Build errors are returned to every waiter
// but not cached.
func (c *Cache) get(key string, kind int, build func() (any, int64, error)) (any, bool, error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits[kind]++
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &entry{kind: kind, key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses[kind]++
	c.mu.Unlock()

	val, bytes, err := build()

	c.mu.Lock()
	e.val, e.err, e.bytes = val, err, bytes
	if err != nil {
		delete(c.entries, key)
	} else {
		c.insertReadyLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	return val, false, err
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
