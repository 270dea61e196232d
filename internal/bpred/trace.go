// Package bpred implements the control-flow predictors: the path-based
// next-trace predictor of Jacobson, Rotenberg and Smith (the paper's
// fragment predictor, Table 1: DOLC D=9 O=4 L=7 C=9, 64 K-entry primary
// table, 16 K-entry secondary table), plus simple direction predictors used
// for ablation studies.
//
// The trace predictor predicts the next fragment's full identity — start PC
// and the directions of every conditional branch inside it — from a hashed
// history of recent fragment IDs. Because directions come with the
// prediction, sequencers need no local branch predictors (§3.1), and the
// same prediction stream drives every front-end in the evaluation so the
// comparison is unbiased.
package bpred

import (
	"fmt"
	"unsafe"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// DOLC carries the history-hashing parameters of the Jacobson et al.
// predictor: history Depth, bits taken from Older IDs, bits from the Last
// ID, and bits from the Current (most recent) ID. Any Depth up to 16 is
// supported; the widths must be Table 1's, because History folds each key
// to them once, when the key is pushed.
type DOLC struct {
	Depth   int
	Older   uint
	Last    uint
	Current uint
}

// Table 1's DOLC widths: the widths History folds every key to.
const (
	olderBits   = 4
	lastBits    = 7
	currentBits = 9
)

// DefaultDOLC returns the paper's Table 1 parameters.
func DefaultDOLC() DOLC {
	return DOLC{Depth: 9, Older: olderBits, Last: lastBits, Current: currentBits}
}

// maxDepth bounds the history ring so History stays a copyable value type
// cheap enough to checkpoint per in-flight fragment. It is a power of two.
const maxDepth = 16

// History is the speculative path history: the keys of the most recent
// fragment IDs, newest last, each stored beside its folds to the Current,
// Last and Older widths. It is a value type — the fetch unit copies it
// into a checkpoint before each prediction so that recovery after a
// misprediction restores the exact history the paper's hardware would.
type History struct {
	keys  [maxDepth]uint64
	cur   [maxDepth]uint16 // fold(key, currentBits)
	last  [maxDepth]uint8  // fold(key, lastBits)
	older [maxDepth]uint8  // fold(key, olderBits)
	n     int              // ring fill for warm-up behaviour; saturates at maxDepth
	head  int              // index of the oldest key
}

// Push appends the key of a new fragment ID, evicting the oldest. The key
// is folded to the three DOLC widths here, once, rather than on every
// lookup that sees it.
func (h *History) Push(key uint64) {
	i := (h.head + h.n) % maxDepth
	h.keys[i] = key
	h.foldSlot(i)
	if h.n == maxDepth {
		h.head = (h.head + 1) % maxDepth
	} else {
		h.n++
	}
}

// foldSlot derives slot i's folds from its key.
func (h *History) foldSlot(i int) {
	k := h.keys[i]
	h.cur[i] = uint16(fold(k, currentBits))
	h.last[i] = uint8(fold(k, lastBits))
	h.older[i] = uint8(fold(k, olderBits))
}

// recent returns the i-th most recent key (i=0 is newest); zero if the
// history is not that deep yet.
func (h *History) recent(i int) uint64 {
	if i >= h.n {
		return 0
	}
	return h.keys[(h.head+h.n-1-i)%maxDepth]
}

// Config sizes the trace predictor. Tables must be powers of two.
type Config struct {
	PrimaryEntries   int
	SecondaryEntries int
	DOLC             DOLC
}

// DefaultConfig returns Table 1's predictor: 64 K primary, 16 K secondary.
func DefaultConfig() Config {
	return Config{PrimaryEntries: 64 << 10, SecondaryEntries: 16 << 10, DOLC: DefaultDOLC()}
}

// entry is one tagless table entry: a predicted next-fragment ID and a
// 2-bit replacement/confidence counter. The ID's fields are stored beside
// the counter, so an entry packs into 16 bytes where a frag.ID field would
// pad it to 24.
type entry struct {
	pc   uint64
	mask uint32
	nbr  uint8
	ctr  uint8
}

// id returns the entry's predicted fragment ID.
func (e entry) id() frag.ID { return frag.ID{StartPC: e.pc, BrMask: e.mask, NumBr: e.nbr} }

// zero reports whether the entry holds the zero ID: it was never trained.
func (e entry) zero() bool { return e.pc == 0 && e.mask == 0 && e.nbr == 0 }

// TracePredictor is the two-level path-based next-trace predictor.
type TracePredictor struct {
	cfg       Config
	primary   []entry
	secondary []entry

	// primaryBits and secondaryBits are the tables' index widths.
	primaryBits, secondaryBits uint

	predicts int64
	updates  int64
	correct  int64
	fromSec  int64
}

// New creates a predictor with the given configuration; sizes are rounded
// up to powers of two. It panics on DOLC widths other than Table 1's, which
// History cannot hash.
func New(cfg Config) *TracePredictor {
	if cfg.PrimaryEntries <= 0 {
		cfg.PrimaryEntries = 64 << 10
	}
	if cfg.SecondaryEntries <= 0 {
		cfg.SecondaryEntries = cfg.PrimaryEntries / 4
	}
	if cfg.DOLC.Depth <= 0 {
		cfg.DOLC = DefaultDOLC()
	}
	if cfg.DOLC.Depth > maxDepth {
		cfg.DOLC.Depth = maxDepth
	}
	if d := cfg.DOLC; d.Older != olderBits || d.Last != lastBits || d.Current != currentBits {
		panic(fmt.Sprintf("bpred: DOLC widths O=%d L=%d C=%d unsupported: History folds keys to O=%d L=%d C=%d",
			d.Older, d.Last, d.Current, olderBits, lastBits, currentBits))
	}
	pb, sb := tableBits(cfg.PrimaryEntries), tableBits(cfg.SecondaryEntries)
	return &TracePredictor{
		cfg:           cfg,
		primary:       make([]entry, 1<<pb),
		secondary:     make([]entry, 1<<sb),
		primaryBits:   pb,
		secondaryBits: sb,
	}
}

// tableBits is the index width of an n-entry table rounded up to a power
// of two.
func tableBits(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// fold XOR-folds v down to bits wide: the XOR of v's bits-wide chunks.
// The shift cascade XORs 2, 4, ..., 64 chunks onto the low bits in six
// branch-free steps (shifts of 64 or more yield 0), enough for any width
// from 1 up; width 0 folds to 0.
func fold(v uint64, bits uint) uint64 {
	v ^= v >> bits
	v ^= v >> (2 * bits)
	v ^= v >> (4 * bits)
	v ^= v >> (8 * bits)
	v ^= v >> (16 * bits)
	v ^= v >> (32 * bits)
	return v & (1<<bits - 1)
}

// primaryIndex hashes the full DOLC history: Current bits from the newest
// ID, Last bits from the next, Older bits from each of the remaining
// Depth-2 IDs, concatenated (wrapping at 48 bits) and folded to the table
// size. The per-key folds were made at push. A ring that is not full yet
// holds zeros beyond its keys, so an ID the history does not hold yet
// contributes zero.
func (p *TracePredictor) primaryIndex(h *History) int {
	const ring = maxDepth - 1
	newest := h.head + h.n - 1
	acc := uint64(h.cur[newest&ring])
	if p.cfg.DOLC.Depth > 1 {
		acc ^= uint64(h.last[(newest-1)&ring]) << currentBits
	}
	shift := uint(currentBits + lastBits)
	for i := 2; i < p.cfg.DOLC.Depth; i++ {
		acc ^= uint64(h.older[(newest-i)&ring]) << shift
		if shift += olderBits; shift >= 48 {
			shift -= 48
		}
	}
	return int(fold(acc, p.primaryBits))
}

// secondaryIndex hashes only the most recent ID — the shallow-history table
// that warms up fast and catches primary cold misses.
func (p *TracePredictor) secondaryIndex(h *History) int {
	return int(fold(h.recent(0), p.secondaryBits))
}

// Prediction is the predictor's output for one lookup.
type Prediction struct {
	ID            frag.ID
	Valid         bool // false: no table has a confident entry
	FromSecondary bool
}

// Predict returns the predicted next fragment for the given history.
// The primary table predicts when its entry is confident (counter >= 2);
// otherwise the secondary table predicts if it has ever been trained.
func (p *TracePredictor) Predict(h *History) Prediction {
	p.predicts++
	pe := p.primary[p.primaryIndex(h)]
	if pe.ctr >= 2 && !pe.zero() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	se := p.secondary[p.secondaryIndex(h)]
	if !se.zero() {
		p.fromSec++
		return Prediction{ID: se.id(), Valid: true, FromSecondary: true}
	}
	if !pe.zero() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	return Prediction{}
}

// Update trains both tables with the actual next fragment for the given
// (pre-fragment) history, and records accuracy against what the predictor
// would have said. The fetch engine calls Update on the true fragment
// stream — speculative fetch uses checkpointed histories, so recovery is a
// history restore plus retraining, as in the paper.
func (p *TracePredictor) Update(h *History, actual frag.ID) {
	pi, si := p.primaryIndex(h), p.secondaryIndex(h)
	p.score(p.peekAt(pi, si), actual)
	p.train(pi, si, actual)
}

// PredictUpdate is Predict(h) followed by Update(h, actual) over one hash
// of h, counters included: it returns what Predict would have said and
// trains both tables as Update does. It serves a caller whose prediction
// and retirement histories are the same history, as the functional
// warmers' are.
func (p *TracePredictor) PredictUpdate(h *History, actual frag.ID) Prediction {
	pi, si := p.primaryIndex(h), p.secondaryIndex(h)
	pred := p.peekAt(pi, si)
	p.predicts++
	if pred.FromSecondary {
		p.fromSec++
	}
	p.score(pred, actual)
	p.train(pi, si, actual)
	return pred
}

// score counts one trained fragment and whether pred had it right.
func (p *TracePredictor) score(pred Prediction, actual frag.ID) {
	p.updates++
	if pred.Valid && pred.ID == actual {
		p.correct++
	}
}

// train moves both tables' entries at the given indices toward actual.
func (p *TracePredictor) train(pi, si int, actual frag.ID) {
	train := func(e *entry) {
		if e.id() == actual {
			if e.ctr < 3 {
				e.ctr++
			}
			return
		}
		if e.ctr > 0 {
			e.ctr--
			return
		}
		e.pc, e.mask, e.nbr, e.ctr = actual.StartPC, actual.BrMask, actual.NumBr, 1
	}
	train(&p.primary[pi])
	train(&p.secondary[si])
}

// peekAt is Predict without statistics over already-computed table indices,
// used for accuracy accounting inside Update.
func (p *TracePredictor) peekAt(pi, si int) Prediction {
	pe := p.primary[pi]
	if pe.ctr >= 2 && !pe.zero() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	se := p.secondary[si]
	if !se.zero() {
		return Prediction{ID: se.id(), Valid: true, FromSecondary: true}
	}
	if !pe.zero() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	return Prediction{}
}

// CopyFrom makes p's tables and counters an exact copy of src's, allocating
// nothing. src must be configured as p is; a mismatch is a bug and panics.
// A History is a value: assignment copies it.
func (p *TracePredictor) CopyFrom(src *TracePredictor) {
	if p.cfg != src.cfg {
		panic(fmt.Sprintf("bpred: copy from a predictor configured %+v into one configured %+v", src.cfg, p.cfg))
	}
	copy(p.primary, src.primary)
	copy(p.secondary, src.secondary)
	p.predicts, p.updates, p.correct, p.fromSec = src.predicts, src.updates, src.correct, src.fromSec
}

// Bytes is the footprint of the two tables.
func (p *TracePredictor) Bytes() int64 {
	return int64(len(p.primary)+len(p.secondary)) * int64(unsafe.Sizeof(entry{}))
}

// Accuracy returns the fraction of Update calls whose fragment the
// predictor had right, and the total number of trained fragments.
func (p *TracePredictor) Accuracy() (float64, int64) {
	if p.updates == 0 {
		return 0, 0
	}
	return float64(p.correct) / float64(p.updates), p.updates
}

// Stats returns raw counters: predictions made, correct, and how many came
// from the secondary table.
func (p *TracePredictor) Stats() (predicts, correct, fromSecondary int64) {
	return p.predicts, p.correct, p.fromSec
}
