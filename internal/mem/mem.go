// Package mem models the memory hierarchy of Table 1: split 64 KB 2-way L1
// instruction and data caches (64-byte blocks, 1-cycle access), a unified
// 1 MB 4-way L2 (10-cycle access), and 100-cycle DRAM.
//
// The timing contract is completion-cycle based: Access(addr, write, now)
// returns the cycle at which the data is available. Independent accesses
// overlap freely (each computes its own completion), which is exactly the
// property the paper's parallel fetch unit exploits — a sequencer blocked on
// its own miss does not serialize the others. Structural limits that the
// paper does model (one line per cycle from a sequential I-cache, bank
// conflicts in the banked I-cache) are enforced by the fetch units, which
// know which requests compete in a given cycle.
package mem

import "github.com/parallel-frontend/pfe/internal/stats"

// Level is anything that can service a memory access.
type Level interface {
	// Access requests the block containing addr at cycle now and returns
	// the cycle at which the block is available. write distinguishes
	// stores (allocate-on-write, same latency).
	Access(addr uint64, write bool, now uint64) uint64
}

// FixedLatency is the DRAM model: every access completes after a constant
// delay.
type FixedLatency struct {
	Latency  uint64
	Accesses int64
}

// Access implements Level.
func (f *FixedLatency) Access(addr uint64, write bool, now uint64) uint64 {
	f.Accesses++
	return now + f.Latency
}

// Cache is a set-associative write-allocate cache with true-LRU
// replacement.
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	setMask   uint64

	lines []line // sets*ways entries, a set's ways side by side
	stamp uint64

	hitLatency uint64
	lower      Level

	accesses int64
	misses   int64
}

// line is one cache line: its block number plus one, so that 0 marks an
// invalid line (no block number reaches 2^64-1 unless blocks are one byte),
// and its last-touch stamp. Keeping both in one struct puts a set lookup in
// one stretch of memory.
type line struct {
	tag uint64
	lru uint64
}

// CacheGeometry describes a cache for construction and reporting.
type CacheGeometry struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLatency uint64
}

// NewCache builds a cache with the given geometry over the given lower
// level. Sizes must be powers of two and consistent; NewCache panics on a
// malformed geometry because geometries are static configuration.
func NewCache(name string, g CacheGeometry, lower Level) *Cache {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.BlockBytes <= 0 {
		panic("mem: non-positive cache geometry")
	}
	sets := g.SizeBytes / (g.Ways * g.BlockBytes)
	if sets <= 0 || sets&(sets-1) != 0 || g.BlockBytes&(g.BlockBytes-1) != 0 {
		panic("mem: cache sets and block size must be powers of two")
	}
	blockBits := uint(0)
	for 1<<blockBits < g.BlockBytes {
		blockBits++
	}
	n := sets * g.Ways
	return &Cache{
		name:       name,
		sets:       sets,
		ways:       g.Ways,
		blockBits:  blockBits,
		setMask:    uint64(sets - 1),
		lines:      make([]line, n),
		hitLatency: g.HitLatency,
		lower:      lower,
	}
}

// Access implements Level: an LRU lookup, with misses filled from the lower
// level and charged its latency.
func (c *Cache) Access(addr uint64, write bool, now uint64) uint64 {
	c.accesses++
	c.stamp++
	block := addr >> c.blockBits
	tag := block + 1
	set := c.set(block)
	for w := range set {
		if set[w].tag == tag {
			set[w].lru = c.stamp
			return now + c.hitLatency
		}
	}

	c.misses++
	done := now + c.hitLatency
	if c.lower != nil {
		done = c.lower.Access(addr, write, now+c.hitLatency)
	}

	// Fill the first invalid way from way 1 on, or else the LRU way.
	victim := 0
	for w := 1; w < len(set); w++ {
		if set[w].tag == 0 {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	set[victim] = line{tag: tag, lru: c.stamp}
	return done
}

// set returns the ways of the set block maps to.
func (c *Cache) set(block uint64) []line {
	base := int(block&c.setMask) * c.ways
	return c.lines[base : base+c.ways]
}

// Probe reports whether addr currently hits without touching LRU state or
// statistics. Fetch units use it to decide bank scheduling; tests use it to
// inspect fill behaviour.
func (c *Cache) Probe(addr uint64) bool {
	block := addr >> c.blockBits
	for _, ln := range c.set(block) {
		if ln.tag == block+1 {
			return true
		}
	}
	return false
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() int { return 1 << c.blockBits }

// BlockOf returns the block number containing addr.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr >> c.blockBits }

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Accesses and Misses report access statistics.
func (c *Cache) Accesses() int64 { return c.accesses }
func (c *Cache) Misses() int64   { return c.misses }

// MissRate returns misses/accesses (zero when unused).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and statistics (used between warmup and measurement
// is deliberately NOT done in the harness — caches stay warm as in the
// paper — but tests use Reset for isolation).
func (c *Cache) Reset() {
	clear(c.lines)
	c.stamp = 0
	c.accesses = 0
	c.misses = 0
}

// ResetStats zeroes the access counters while keeping contents — used after
// functional warming so a run's miss rates describe its own traffic, not the
// warming replay's.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// CopyFrom makes c's contents and counters (lines, LRU stamps, access
// statistics) an exact copy of src's, allocating nothing, so one
// functionally warmed cache can seed any number of identically shaped ones.
// A src of another geometry is a bug and panics.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || c.ways != src.ways || c.blockBits != src.blockBits {
		panic("mem: " + c.name + ": copy from a cache of another geometry")
	}
	copy(c.lines, src.lines)
	c.stamp, c.accesses, c.misses = src.stamp, src.accesses, src.misses
}

// Bytes is the footprint of the cache's lines, 16 bytes each.
func (c *Cache) Bytes() int64 { return int64(len(c.lines)) * 16 }

// AddTo dumps the cache's counters into a stats set under its name.
func (c *Cache) AddTo(s *stats.Set) {
	s.Add(c.name+".accesses", c.accesses)
	s.Add(c.name+".misses", c.misses)
}
