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
	"github.com/parallel-frontend/pfe/internal/frag"
)

// DOLC carries the history-hashing parameters of the Jacobson et al.
// predictor: history Depth, bits taken from Older IDs, bits from the Last
// ID, and bits from the Current (most recent) ID.
type DOLC struct {
	Depth   int
	Older   uint
	Last    uint
	Current uint
}

// DefaultDOLC returns the paper's Table 1 parameters.
func DefaultDOLC() DOLC { return DOLC{Depth: 9, Older: 4, Last: 7, Current: 9} }

// maxDepth bounds the history ring so History stays a copyable value type
// cheap enough to checkpoint per in-flight fragment.
const maxDepth = 16

// History is the speculative path history: the keys of the most recent
// fragment IDs, newest last. It is a value type — the fetch unit copies it
// into a checkpoint before each prediction so that recovery after a
// misprediction restores the exact history the paper's hardware would.
type History struct {
	keys [maxDepth]uint64
	n    int // ring fill for warm-up behaviour; saturates at maxDepth
	head int // index of the oldest key
}

// Push appends the key of a new fragment ID, evicting the oldest.
func (h *History) Push(key uint64) {
	h.keys[(h.head+h.n)%maxDepth] = key
	if h.n == maxDepth {
		h.head = (h.head + 1) % maxDepth
	} else {
		h.n++
	}
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
// 2-bit replacement/confidence counter.
type entry struct {
	id  frag.ID
	ctr uint8
}

// TracePredictor is the two-level path-based next-trace predictor.
type TracePredictor struct {
	cfg       Config
	primary   []entry
	secondary []entry

	predicts int64
	updates  int64
	correct  int64
	fromSec  int64
}

// New creates a predictor with the given configuration; sizes are rounded
// up to powers of two.
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
	return &TracePredictor{
		cfg:       cfg,
		primary:   make([]entry, ceilPow2(cfg.PrimaryEntries)),
		secondary: make([]entry, ceilPow2(cfg.SecondaryEntries)),
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
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
// Depth-2 IDs, concatenated and folded to the table size.
func (p *TracePredictor) primaryIndex(h *History) int {
	d := p.cfg.DOLC
	var acc uint64
	var width uint
	push := func(v uint64, bits uint) {
		acc ^= (v & (1<<bits - 1)) << (width % 48)
		width += bits
	}
	push(fold(h.recent(0), d.Current), d.Current)
	if d.Depth > 1 {
		push(fold(h.recent(1), d.Last), d.Last)
	}
	for i := 2; i < d.Depth; i++ {
		push(fold(h.recent(i), d.Older), d.Older)
	}
	return int(fold(acc, tableBits(len(p.primary))))
}

// secondaryIndex hashes only the most recent ID — the shallow-history table
// that warms up fast and catches primary cold misses.
func (p *TracePredictor) secondaryIndex(h *History) int {
	return int(fold(h.recent(0), tableBits(len(p.secondary))))
}

func tableBits(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
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
	if pe.ctr >= 2 && !pe.id.Zero() {
		return Prediction{ID: pe.id, Valid: true}
	}
	se := p.secondary[p.secondaryIndex(h)]
	if !se.id.Zero() {
		p.fromSec++
		return Prediction{ID: se.id, Valid: true, FromSecondary: true}
	}
	if !pe.id.Zero() {
		return Prediction{ID: pe.id, Valid: true}
	}
	return Prediction{}
}

// Update trains both tables with the actual next fragment for the given
// (pre-fragment) history, and records accuracy against what the predictor
// would have said. The fetch engine calls Update on the true fragment
// stream — speculative fetch uses checkpointed histories, so recovery is a
// history restore plus retraining, as in the paper.
func (p *TracePredictor) Update(h *History, actual frag.ID) {
	p.updates++
	// The history is hashed once and the indices shared between the
	// accuracy peek and the training writes — Update is called once per
	// true-path fragment by the simulator and the functional warmer alike,
	// and the DOLC fold is the predictor's hottest computation.
	pi, si := p.primaryIndex(h), p.secondaryIndex(h)
	if pred := p.peekAt(pi, si); pred.Valid && pred.ID == actual {
		p.correct++
	}
	train := func(e *entry) {
		if e.id == actual {
			if e.ctr < 3 {
				e.ctr++
			}
			return
		}
		if e.ctr > 0 {
			e.ctr--
			return
		}
		e.id = actual
		e.ctr = 1
	}
	train(&p.primary[pi])
	train(&p.secondary[si])
}

// peekAt is Predict without statistics over already-computed table indices,
// used for accuracy accounting inside Update.
func (p *TracePredictor) peekAt(pi, si int) Prediction {
	pe := p.primary[pi]
	if pe.ctr >= 2 && !pe.id.Zero() {
		return Prediction{ID: pe.id, Valid: true}
	}
	se := p.secondary[si]
	if !se.id.Zero() {
		return Prediction{ID: se.id, Valid: true, FromSecondary: true}
	}
	if !pe.id.Zero() {
		return Prediction{ID: pe.id, Valid: true}
	}
	return Prediction{}
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
