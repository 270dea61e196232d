package pfe

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/tcache"
)

// Warm-state artifacts: the functionally warmed front-end state at a sampled
// run's first detailed-warmup boundary, held as Go values in the
// in-process artifact cache. Functional warming replays every instruction of
// the skipped prefix through the cache hierarchy and the trained front-end
// structures — at 30 M-instruction warmups it dominates a sampled cell's
// wall time, and it is identical for every cell that shares the dynamic
// stream, the warm-relevant machine configuration, and the boundary. Caching
// the warmed state under that triple means a sweep pays the replay once
// instead of once per cell; each cell then copies the tables it needs.

// warmStateMinInsts gates the cache: a cell warms a boundary below it
// itself. So short a replay costs little, while caching it would keep a
// warmed set's tables for every benchmark and boundary.
const warmStateMinInsts = 1 << 18

// warmClassHash digests the warm-relevant machine configuration: everything
// that shapes the warmer's structures or their training decisions — the
// memory hierarchy, the fragment predictor tables, the fragment-selection
// heuristics, and the optional trained structures (live-out predictor,
// trace cache) when the machine has them. The fetch and rename engine kinds
// themselves are NOT part of the class: functional warming replays the
// true-path stream identically whatever engine later consumes the state, so
// e.g. W16, PF-2x8w and PF-4x4w — which differ only in detailed-simulation
// shape — all share one warmed state per benchmark.
func warmClassHash(m Machine) string {
	h := sha256.New()
	fmt.Fprintf(h, "mem:%+v|pred:%+v|frag:%+v", m.memory, m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
	if m.frontEnd.Rename == core.RenameParallel {
		fmt.Fprintf(h, "|lo:%+v", m.frontEnd.LiveOut)
	}
	if m.frontEnd.Fetch == core.FetchTraceCache {
		fmt.Fprintf(h, "|tc:%d", m.frontEnd.TraceCache)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// warmClasses reduces a machine roster to its sorted, distinct warm class
// hashes — the classes one union replay of the shared prefix trains.
func warmClasses(machines []Machine) []string {
	var classes []string
	seen := map[string]bool{}
	for _, m := range machines {
		if c := warmClassHash(m); !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	return classes
}

// warmPackKey is the content address of one warm pack: the dynamic stream
// (spec), the sorted set of warm classes the pack carries, and the boundary
// the warmer stopped at. Keying the whole class set — rather than one entry
// per class — is what makes union warming single-flight: every cell of a
// sweep, whatever its class, asks the cache for the same key, so the first
// one replays the prefix for the whole roster and the rest wait for its
// pack instead of warming their own class. Tape length is deliberately not
// part of the key — the stream prefix below the boundary is identical
// whatever budget the tape was recorded to.
func warmPackKey(spec program.Spec, classes []string, boundary uint64) string {
	h := sha256.New()
	for _, c := range classes {
		io.WriteString(h, c)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("wp:%s:%s:%d", artifact.SpecHash(spec), hex.EncodeToString(h.Sum(nil))[:16], boundary)
}

// Functional warming replays the skipped stream through the long-lived
// machine state a detailed window inherits from its prefix: every
// instruction touches the L1I, memory operations touch the L1D, and the
// fragment-granular structures (fragment predictor, live-out predictor,
// trace cache) are trained by emulating the fetch stream's true-path
// prediction loop. That loop is exactly reconstructible without cycle
// simulation: the stream only updates the fragment predictor on the true
// path, with an anchor and history evolution that depend solely on the
// dynamic stream and the predictor's own answers — a divergence re-anchors
// fragment selection at the first mismatched instruction, which is why
// naive clean splitting trains a measurably different table population than
// the machine would. Reconstructing this state at tape-replay cost instead
// of cycle-simulation cost is the piece of SMARTS that keeps systematic
// sampling unbiased: the pipeline and in-flight window warm quickly inside
// the detailed warmup, but caches and predictor tables reach back much
// further than any affordable detailed region.
//
// One kernel does all of it, for one machine (a window's gaps) or for a
// sweep's whole roster at once (union warming: a sweep's
// cells all skip the same prefix, but split into warm classes by their
// trained structures). The training has a strict dependency order that
// makes one shared replay exact: the cache hierarchies observe only the
// dynamic stream; the fragment predictor and its path history observe only
// the stream and themselves; the live-out predictor and trace cache
// observe only the fetched-fragment sequence, which is fully determined by
// (stream, predictor). Nothing ever reads a hierarchy, live-out predictor
// or trace cache during warming. So the kernel reads the tape a run at a
// time (a straight-line run up to and including its control transfer),
// walks every distinct hierarchy over the run, then runs one prediction
// loop per (predictor config, heuristics) group over the runs read so far,
// filling every distinct live-out predictor and trace cache of the group —
// and each class's state is bit-for-bit what a replay for that class alone
// would have produced (TestWarmStateUnionWarming pins this).

// warmRuns is how many runs the set buffers; maxWarmRun caps a run's
// length, so that the set's memory-reference array holds any run's.
const (
	warmRuns   = 256
	maxWarmRun = 256
)

// warmHier is one distinct memory hierarchy under training, with its own
// L1I line cursor: straight-line code stays in one line for many
// instructions, so warming touches the L1I once per line transition
// rather than once per instruction (the resident-line set is identical,
// only redundant LRU refreshes of the just-touched way are elided).
type warmHier struct {
	key      string
	hier     *mem.Hierarchy
	lastIBlk uint64 // the L1I line the last warmed instruction sits in
	iblkMask uint64
}

// walkRun touches the caches for one run in stream order: the L1I at the
// run's first instruction unless its line was touched last, then at each
// further line the run enters, and the L1D at each memory operation's
// effective address, after the L1I touch of the line that holds it.
func (h *warmHier) walkRun(r *frag.Run, refs []artifact.MemRef) {
	l1i := h.hier.L1I
	line := ^h.iblkMask + 1
	next := r.PC // the next instruction whose line is touched
	if r.PC&h.iblkMask == h.lastIBlk {
		next = r.PC&h.iblkMask + line
	}
	for i := range refs {
		m := &refs[i]
		for ; next <= m.PC; next = next&h.iblkMask + line {
			l1i.Access(next, false, 0)
		}
		h.hier.L1D.Access(m.EA, m.Store, 0)
	}
	end := r.PC + uint64(r.Len)*isa.InstBytes
	for ; next < end; next = next&h.iblkMask + line {
		l1i.Access(next, false, 0)
	}
	h.lastIBlk = (end - isa.InstBytes) & h.iblkMask
}

// warmLO / warmTC are distinct live-out predictor and trace cache instances
// within a prediction loop's group.
type warmLO struct {
	key string
	lo  *rename.LiveOutPredictor
}

type warmTC struct {
	size int
	tc   *tcache.Cache
}

// warmLoop is one true-path prediction loop, mirroring core.Stream's: a
// fragment predictor, its path history, a fragment memo, and an anchor in
// the stream where its next fragment starts — plus the live-out predictors
// and trace caches trained from its fetched-fragment sequence. Distinct
// predictor configs or fragment heuristics produce distinct fetched
// sequences, hence distinct loops. A solo set's memo goes on to serve the
// detailed runs that inherit its state (config), so a sampled cell builds
// each fragment once.
//
// One history serves as both the stream's speculative and its retirement
// history: on the true path the two are always equal. Both start empty;
// each step pushes the true fragment's ID into the retirement history, and
// the speculative one either pushes the same ID (a correct prediction) or
// is restored from the retirement history (a divergence).
type warmLoop struct {
	key   string
	pred  *bpred.TracePredictor
	hist  bpred.History
	frags *frag.Memo
	los   []*warmLO
	tcs   []*warmTC

	// The anchor: the stream position of the loop's next fragment, which
	// is instruction ro of the set's buffered run ri. A fragment can start
	// and stop mid-run.
	at     uint64
	ri, ro int
}

// step performs one iteration of the stream's true-path prediction loop on
// runs, the buffered runs from the one holding the loop's anchor, which
// hold at least frag.AbsMaxLen instructions from the anchor on so every
// split and match decision is exact: predict the next fragment,
// materialize it, compare it against the true stream, train the predictor
// on the true fragment, and return how far the anchor advances — by the
// true fragment on a correct prediction, to the first mismatched
// instruction on a divergence (the stream's redirect re-anchor). The
// fetched fragment also trains the live-out predictors and fills the trace
// caches, as renaming and fetch would.
func (l *warmLoop) step(runs []frag.Run) int {
	trueLen, trueID := l.frags.Heuristics().SplitRuns(runs, l.ro)
	pred := l.pred.PredictUpdate(&l.hist, trueID)
	id := frag.ID{StartPC: trueID.StartPC}
	if pred.Valid && pred.ID.StartPC == trueID.StartPC {
		id = pred.ID
	}
	f := l.frags.Get(id)
	l.hist.Push(trueID.Key())
	if f.Len() > 0 {
		for _, w := range l.los {
			w.lo.Train(f.ID, f.LiveOuts)
		}
		for _, w := range l.tcs {
			w.tc.Fill(f)
		}
	}
	if f.ID == trueID {
		// FromCode walked the true fragment's directions from its start,
		// so every PC matches.
		return trueLen
	}
	// Divergence: fetch resumes at the first mismatch (never the start PC,
	// which the loop forces correct).
	return max(f.MatchRuns(runs, l.ro), 1)
}

// advance moves the loop's anchor k instructions on through runs, the
// set's buffered runs.
func (l *warmLoop) advance(k int, runs []frag.Run) {
	l.at += uint64(k)
	l.ro += k
	for l.ri < len(runs) && l.ro >= runs[l.ri].Len {
		l.ro -= runs[l.ri].Len
		l.ri++
	}
}

// warmMember is one distinct warm class of the set: the components its
// detailed runs inherit, or that a cell of its class copies out of a pack.
type warmMember struct {
	class string
	hier  *warmHier
	loop  *warmLoop
	lo    *rename.LiveOutPredictor // nil: class has no live-out predictor
	tc    *tcache.Cache            // nil: class has no trace cache
}

// copyFrom makes mb's structures exact copies of src's, a member of the
// same warm class in another set. Trace-cache lines resolve their fragments
// through mb's own memo.
func (mb *warmMember) copyFrom(src *warmMember) {
	mb.hier.hier.CopyFrom(src.hier.hier)
	mb.hier.lastIBlk = src.hier.lastIBlk
	mb.loop.pred.CopyFrom(src.loop.pred)
	mb.loop.hist = src.loop.hist
	if mb.lo != nil {
		mb.lo.CopyFrom(src.lo)
	}
	if mb.tc != nil {
		mb.tc.CopyFrom(src.tc, mb.loop.frags.Get)
	}
}

// warmSet trains every distinct warm class of a machine roster in one
// replay of the stream; a machine's own warming is a set with one member.
type warmSet struct {
	rd      *artifact.Reader
	prog    *program.Program
	hiers   []*warmHier
	loops   []*warmLoop
	members []warmMember

	// runs[:n] is the stream read since the oldest loop anchor, run by
	// run; refs holds the memory operations of the run read last. The runs
	// are moved to the front only when the buffer is full.
	runs [warmRuns]frag.Run
	n    int
	refs [maxWarmRun]artifact.MemRef
}

// newWarmSet deduplicates machines into warm classes and shared components:
// a fresh hierarchy plus every trained front-end structure the machines
// actually have (fragment predictor always; live-out predictor and trace
// cache when the front-end uses them). Component sharing is by
// configuration: two classes with the same memory hierarchy config train
// one hierarchy, two with the same (predictor, heuristics) share one
// prediction loop, and so on — each component's training is independent
// of which classes reference it.
func newWarmSet(rd *artifact.Reader, p *program.Program, machines []Machine) *warmSet {
	s := &warmSet{rd: rd, prog: p}
	classes := map[string]bool{}
	for _, m := range machines {
		class := warmClassHash(m)
		if classes[class] {
			continue
		}
		classes[class] = true

		hkey := fmt.Sprintf("%+v", m.memory)
		var h *warmHier
		for _, c := range s.hiers {
			if c.key == hkey {
				h = c
				break
			}
		}
		if h == nil {
			hier := mem.NewHierarchy(m.memory)
			h = &warmHier{
				key:      hkey,
				hier:     hier,
				iblkMask: ^uint64(hier.L1I.BlockBytes() - 1),
				lastIBlk: ^uint64(0),
			}
			s.hiers = append(s.hiers, h)
		}

		lkey := fmt.Sprintf("%+v|%+v", m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
		var l *warmLoop
		for _, c := range s.loops {
			if c.key == lkey {
				l = c
				break
			}
		}
		if l == nil {
			l = &warmLoop{
				key:   lkey,
				pred:  bpred.New(m.frontEnd.Predictor),
				frags: frag.NewMemo(p, m.frontEnd.FragHeuristics),
			}
			s.loops = append(s.loops, l)
		}

		mb := warmMember{class: class, hier: h, loop: l}
		if m.frontEnd.Rename == core.RenameParallel {
			lokey := fmt.Sprintf("%+v", m.frontEnd.LiveOut)
			var wl *warmLO
			for _, c := range l.los {
				if c.key == lokey {
					wl = c
					break
				}
			}
			if wl == nil {
				wl = &warmLO{key: lokey, lo: rename.NewLiveOutPredictor(m.frontEnd.LiveOut)}
				l.los = append(l.los, wl)
			}
			mb.lo = wl.lo
		}
		if m.frontEnd.Fetch == core.FetchTraceCache {
			var wt *warmTC
			for _, c := range l.tcs {
				if c.size == m.frontEnd.TraceCache {
					wt = c
					break
				}
			}
			if wt == nil {
				wt = &warmTC{size: m.frontEnd.TraceCache, tc: tcache.New(tcache.Config{SizeBytes: m.frontEnd.TraceCache, Ways: 2})}
				l.tcs = append(l.tcs, wt)
			}
			mb.tc = wt.tc
		}
		s.members = append(s.members, mb)
	}
	s.resync()
	return s
}

// warmTo replays the stream up to (but not including) sequence index upto,
// leaving the reader exactly there (or at the halt point). Each run read
// walks every hierarchy; then every loop trains on each fragment whose
// anchor has at least frag.AbsMaxLen instructions read after it, so every
// decision is content-determined, whatever the run boundaries. A partial
// tail fragment at the gap boundary is left for the detailed warmup to
// handle.
func (s *warmSet) warmTo(upto uint64) error {
	for s.rd.Pos() < upto && !s.rd.Halted() {
		if s.n == len(s.runs) {
			s.trim()
		}
		r := &s.runs[s.n]
		k, err := s.rd.ReadRun(r, int(min(upto-s.rd.Pos(), maxWarmRun)), s.refs[:])
		if err != nil {
			return err
		}
		for _, h := range s.hiers {
			h.walkRun(r, s.refs[:k])
		}
		s.n++
		pos := s.rd.Pos()
		for _, l := range s.loops {
			for l.at+frag.AbsMaxLen <= pos {
				l.advance(l.step(s.runs[l.ri:s.n]), s.runs[:s.n])
			}
		}
	}
	return nil
}

// trim moves the runs no loop has consumed yet — under frag.AbsMaxLen
// instructions once every loop has trained — to the front.
func (s *warmSet) trim() {
	lo := s.n
	for _, l := range s.loops {
		lo = min(lo, l.ri)
	}
	s.n = copy(s.runs[:], s.runs[lo:s.n])
	for _, l := range s.loops {
		l.ri -= lo
	}
}

// resync drops the pending runs and moves every loop's anchor to the
// reader's position, after a discontinuity (a detailed window consumed the
// stream between two warming phases): stitching instructions from either
// side of the window into one fragment would train the predictor on
// boundaries that never occur.
func (s *warmSet) resync() {
	s.n = 0
	for _, l := range s.loops {
		l.at, l.ri, l.ro = s.rd.Pos(), 0, 0
	}
}

// bytes is the footprint of the set's trained tables.
func (s *warmSet) bytes() int64 {
	var n int64
	for _, h := range s.hiers {
		n += h.hier.Bytes()
	}
	for _, l := range s.loops {
		n += l.pred.Bytes()
		for _, w := range l.los {
			n += w.lo.Bytes()
		}
		for _, w := range l.tcs {
			n += w.tc.Bytes()
		}
	}
	return n
}

// config installs a solo set's warmed structures into a detailed run's
// config, with the cache statistics reset: a window's miss rates
// describe its own detailed traffic, not the warming replay's. The run also
// builds its fragments through the set's memo, which already holds every
// fragment the set's own warming fetched and its trace cache holds.
func (s *warmSet) config(cfg *sim.Config) {
	mb := &s.members[0]
	h := mb.hier.hier
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	cfg.Hier = h
	cfg.Pred = mb.loop.pred
	cfg.LiveOut = mb.lo
	cfg.TC = mb.tc
	cfg.Frags = mb.loop.frags
}

// warmPack is a union-warmed set as the artifact cache holds it: every warm
// class's trained structures at the boundary, and the reader position the
// replay stopped at (the boundary, or an earlier halt). It keeps no reader
// and no fragment memo, only the trained structures, and nothing writes to
// it once cached: cells copy out of it concurrently.
type warmPack struct {
	members []warmMember
	pos     uint64
}

// warmThrough advances a machine's fresh solo warm set to boundary, through
// the artifact cache when one is attached: the first cell of a sweep to
// reach a boundary replays the prefix once — training every distinct warm
// class of the roster side by side in a fresh set — and caches the result
// as a warm pack; every cell of the process, the builder included, then
// copies its own class's structures out of the pack into its set.
func warmThrough(ws *warmSet, spec program.Spec, m Machine, boundary uint64, opts RunOptions) (artifact.Info, error) {
	if opts.Artifacts == nil || boundary < warmStateMinInsts {
		return artifact.Info{}, ws.warmTo(boundary)
	}
	machines := append([]Machine{m}, opts.WarmRoster...)
	v, info, err := opts.Artifacts.WarmStateInfo(warmPackKey(spec, warmClasses(machines), boundary), func() (any, int64, error) {
		set := newWarmSet(ws.rd, ws.prog, machines)
		if err := set.warmTo(boundary); err != nil {
			return nil, 0, err
		}
		for _, l := range set.loops {
			l.frags = nil // each cell resolves fragments through its own memo
		}
		return &warmPack{members: set.members, pos: ws.rd.Pos()}, set.bytes(), nil
	})
	if err != nil {
		return info, err
	}
	pack := v.(*warmPack)
	class := warmClassHash(m)
	for i := range pack.members {
		if src := &pack.members[i]; src.class == class {
			ws.members[0].copyFrom(src)
			return info, ws.rd.Seek(pack.pos)
		}
	}
	panic("pfe: warm pack lacks the class its key names")
}
