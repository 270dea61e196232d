package rename

import (
	"math/bits"
	"unsafe"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// LiveOutPredictorConfig sizes the live-out predictor. Table 1: 4K entries,
// 2-way set associative, 84 bits per entry (4-bit tag + 64-bit register
// bitmap + 16-bit last-write bitmap), 42 KB total.
type LiveOutPredictorConfig struct {
	Entries int
	Ways    int
	TagBits uint
}

// DefaultLiveOutConfig returns the paper's configuration.
func DefaultLiveOutConfig() LiveOutPredictorConfig {
	return LiveOutPredictorConfig{Entries: 4096, Ways: 2, TagBits: 4}
}

type loEntry struct {
	valid bool
	tag   uint16
	lo    LiveOuts
	lru   uint64
}

// LiveOutPredictor predicts, per fragment, the registers the fragment
// writes and the instructions performing each register's last write (§4.1).
// It is indexed by a hash of the fragment's start address and predicted
// branch directions — i.e. the fragment ID — with a small tag to detect
// aliasing.
type LiveOutPredictor struct {
	sets    int
	ways    int
	tagBits uint
	entries []loEntry
	stamp   uint64

	lookups int64
	hits    int64
}

// NewLiveOutPredictor builds a predictor; entry count is rounded up to a
// power of two of sets.
func NewLiveOutPredictor(cfg LiveOutPredictorConfig) *LiveOutPredictor {
	if cfg.Ways <= 0 {
		cfg.Ways = 2
	}
	if cfg.Entries < cfg.Ways {
		cfg.Entries = cfg.Ways
	}
	sets := 1
	for sets*2*cfg.Ways <= cfg.Entries {
		sets *= 2
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = 4
	}
	return &LiveOutPredictor{
		sets:    sets,
		ways:    cfg.Ways,
		tagBits: cfg.TagBits,
		entries: make([]loEntry, sets*cfg.Ways),
	}
}

// Entries returns the total entry count.
func (lp *LiveOutPredictor) Entries() int { return lp.sets * lp.ways }

func (lp *LiveOutPredictor) locate(id frag.ID) (set int, tag uint16) {
	key := id.Key()
	setBits := uint(bits.TrailingZeros(uint(lp.sets)))
	set = int(foldKey(key, setBits))
	tag = uint16(foldKey(key>>setBits, lp.tagBits))
	return set, tag
}

func foldKey(v uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	mask := uint64(1)<<width - 1
	r := uint64(0)
	for v != 0 {
		r ^= v & mask
		v >>= width
	}
	return r
}

// Predict returns the live-out prediction for fragment id. A miss returns
// ok=false; the renamer then treats every register as potentially written
// (a conservative fragment rename that is always "correct" but allocates
// pessimistically — the simulator models it as an unpredicted fragment).
func (lp *LiveOutPredictor) Predict(id frag.ID) (LiveOuts, bool) {
	lp.lookups++
	lp.stamp++
	set, tag := lp.locate(id)
	base := set * lp.ways
	for w := 0; w < lp.ways; w++ {
		e := &lp.entries[base+w]
		if e.valid && e.tag == tag {
			e.lru = lp.stamp
			lp.hits++
			return e.lo, true
		}
	}
	return LiveOuts{}, false
}

// Train records the actual live-outs of fragment id ("the first time a
// fragment is seen, the live-outs are recorded in a table").
func (lp *LiveOutPredictor) Train(id frag.ID, lo LiveOuts) {
	lp.stamp++
	set, tag := lp.locate(id)
	base := set * lp.ways
	victim := base
	for w := 0; w < lp.ways; w++ {
		e := &lp.entries[base+w]
		if e.valid && e.tag == tag {
			e.lo = lo
			e.lru = lp.stamp
			return
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < lp.entries[victim].lru {
			victim = base + w
		}
	}
	lp.entries[victim] = loEntry{valid: true, tag: tag, lo: lo, lru: lp.stamp}
}

// CopyFrom makes lp's entries, stamp and counters an exact copy of src's,
// allocating nothing. src must be shaped as lp is; a mismatch is a bug and
// panics.
func (lp *LiveOutPredictor) CopyFrom(src *LiveOutPredictor) {
	if lp.sets != src.sets || lp.ways != src.ways || lp.tagBits != src.tagBits {
		panic("rename: copy from a live-out predictor of another shape")
	}
	copy(lp.entries, src.entries)
	lp.stamp, lp.lookups, lp.hits = src.stamp, src.lookups, src.hits
}

// Bytes is the footprint of the predictor's table.
func (lp *LiveOutPredictor) Bytes() int64 {
	return int64(len(lp.entries)) * int64(unsafe.Sizeof(loEntry{}))
}

// HitRate returns table hits / lookups (not prediction correctness, which
// the caller scores with CheckPrediction).
func (lp *LiveOutPredictor) HitRate() float64 {
	if lp.lookups == 0 {
		return 0
	}
	return float64(lp.hits) / float64(lp.lookups)
}
