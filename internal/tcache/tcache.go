// Package tcache implements the trace cache baseline (§5: "TC"): a 2-way
// set-associative cache of instruction traces with a maximum trace size of
// 16 instructions, filled by a fill unit observing the committed instruction
// stream, and indexed by trace identity (start PC + branch directions).
//
// Trace selection uses the identical heuristics as fragment selection
// (internal/frag) — the paper deliberately makes fragments and traces the
// same so the comparison between TC and the parallel front-end is unbiased.
package tcache

import (
	"unsafe"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// Config sizes the trace cache.
type Config struct {
	// SizeBytes is the storage budget. Each entry holds one trace line
	// of frag.MaxLen instructions at 4 bytes each.
	SizeBytes int
	Ways      int
}

// LineBytes is the storage charged per trace entry: a full-length trace's
// instruction words. (Tag and metadata overheads are excluded from the
// budget, as is conventional and as the paper's "32 KB trace cache" sizing
// implies.)
const LineBytes = frag.MaxLen * 4

// DefaultConfig returns the paper's TC configuration: 32 KB, 2-way.
func DefaultConfig() Config { return Config{SizeBytes: 32 << 10, Ways: 2} }

type line struct {
	id    frag.ID
	f     *frag.Fragment
	valid bool
	lru   uint64
}

// Cache is the trace cache.
type Cache struct {
	sets  int
	ways  int
	lines []line
	stamp uint64

	lookups int64
	hits    int64
	fills   int64
}

// New builds a trace cache; entries = SizeBytes / LineBytes rounded down to
// a power of two of sets, so setOf indexes a set with a mask.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		cfg.Ways = 2
	}
	entries := cfg.SizeBytes / LineBytes
	if entries < cfg.Ways {
		entries = cfg.Ways
	}
	sets := 1
	for sets*2*cfg.Ways <= entries {
		sets *= 2
	}
	return &Cache{
		sets:  sets,
		ways:  cfg.Ways,
		lines: make([]line, sets*cfg.Ways),
	}
}

// Entries returns the total number of trace lines.
func (c *Cache) Entries() int { return len(c.lines) }

func (c *Cache) setOf(id frag.ID) int {
	// Index by start PC only (the conventional design): different
	// direction variants of the same start compete within the set, which
	// is a real source of trace-cache conflict the paper leans on.
	return int((id.StartPC >> 2) & uint64(c.sets-1))
}

// Lookup returns the stored trace for id, if present.
func (c *Cache) Lookup(id frag.ID) (*frag.Fragment, bool) {
	c.lookups++
	c.stamp++
	base := c.setOf(id) * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.id == id {
			ln.lru = c.stamp
			c.hits++
			return ln.f, true
		}
	}
	return nil, false
}

// Fill inserts a trace built by the fill unit, evicting LRU within the set.
func (c *Cache) Fill(f *frag.Fragment) {
	c.fills++
	c.stamp++
	base := c.setOf(f.ID) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.id == f.ID {
			ln.f = f // refresh in place
			ln.lru = c.stamp
			return
		}
		if !ln.valid {
			victim = base + w
			break
		}
		if ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.lines[victim] = line{id: f.ID, f: f, valid: true, lru: c.stamp}
}

// CopyFrom makes c's lines, stamp and counters an exact copy of src's,
// allocating nothing but what resolve does. A line keeps only its trace's
// identity: each valid line's fragment comes from resolve, as the fill unit
// would build it, so the copy never shares src's fragments. src must be
// shaped as c is; a mismatch is a bug and panics.
func (c *Cache) CopyFrom(src *Cache, resolve func(frag.ID) *frag.Fragment) {
	if c.sets != src.sets || c.ways != src.ways {
		panic("tcache: copy from a trace cache of another shape")
	}
	for i, ln := range src.lines {
		if ln.valid {
			ln.f = resolve(ln.id)
		}
		c.lines[i] = ln
	}
	c.stamp, c.lookups, c.hits, c.fills = src.stamp, src.lookups, src.hits, src.fills
}

// Bytes is the footprint of the cache's lines.
func (c *Cache) Bytes() int64 { return int64(len(c.lines)) * int64(unsafe.Sizeof(line{})) }

// HitRate returns hits/lookups.
func (c *Cache) HitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.lookups)
}

// Stats returns raw counters.
func (c *Cache) Stats() (lookups, hits, fills int64) { return c.lookups, c.hits, c.fills }
