package core

import (
	"errors"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/pool"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// Stream generates the speculative fetch stream every front-end consumes:
// predicted fragments, materialized from the static code image, compared
// against the true dynamic stream (the functional emulator). When a
// prediction diverges from the truth, the stream keeps producing wrong-path
// fragments — which occupy fetch slots, buffers and window entries exactly
// like real speculative hardware — until the mispredicted instruction
// resolves in the back-end and the simulator applies the redirect.
//
// The stream also owns the oracle-side bookkeeping hardware keeps in its
// own structures: per-register last-writer state for dependence edges
// (proven equivalent to parallel rename's bindings by the rename package's
// tests), speculative vs. retirement predictor history, and the redirect
// checkpoint.
type Stream struct {
	mach emu.Oracle
	pred *bpred.TracePredictor
	// frags builds every fragment the stream fetches, once per distinct
	// ID; a sampled run's windows share one with its functional warmer
	// (NewStream). heur is its normalized heuristics, which also split the
	// true stream.
	frags *frag.Memo
	heur  frag.Heuristics

	// Oracle lookahead: look[head:end] are the next true-path
	// instructions, the one at look[head] with seq lookBase, and lookEA
	// holds their effective addresses at the same indices. refill tops it
	// up with one block read and moves it to the front when the buffer has
	// no room left behind it.
	look      [lookCap]emu.Dyn
	lookEA    [lookCap]uint64
	head, end int
	lookBase  uint64
	// oracleErr is the first error the oracle returned, with the seq it
	// failed at; the stream reads nothing further after it (see Err).
	oracleErr error

	// Speculative state.
	specHist   bpred.History
	retireHist bpred.History
	lastWriter writers
	nextSeq    uint64 // next speculative op seq (starts at 1)

	trueCursor uint64 // oracle seq speculation has correctly consumed
	onTrue     bool
	prevFrag   *frag.Fragment // last generated fragment (successor computation)
	prevLastOp *backend.Op    // its final op (retroactive mispredict points)

	pending *Redirect
	// late is a culprit flagged after it may have entered the back-end
	// window; the owning Unit announces it to the back-end (TakeLateCulprit).
	late *backend.Op
	// redFree recycles the consumed Redirect: at most one divergence is
	// outstanding, and its record is only read in the cycle it resolves,
	// so the next divergence (created no earlier than the next fetch
	// cycle) can safely reuse the object.
	redFree *Redirect

	fragsGenerated int64
	fragsCorrect   int64
	doneTrue       bool // true path fully generated (halt fragment emitted)

	// ffPool recycles FetchedFrags (and their inline op storage) once the
	// owning Unit proves every reference is gone — the cycle loop's biggest
	// allocation source before pooling.
	ffPool *pool.FreeList[FetchedFrag]

	// Observability: attached by the owning Unit; now is the current
	// cycle, advanced by Unit.Cycle via Tick so prediction events carry
	// the cycle they were made in.
	sink trace.Sink
	met  *metrics.Pipeline
	now  uint64
}

// oracleLookahead is how many true-path instructions the stream keeps
// ahead of its cursor. lookCap is the lookahead buffer's size: the room
// behind the lookahead lets refill append several times before it compacts.
const (
	oracleLookahead = 8 * frag.MaxLen
	lookCap         = 4 * oracleLookahead
)

// writers is the speculative last-writer table behind dependence edges: per
// register, the seq+1 of the youngest op writing it (0 = none) and the op
// storage that op was materialized in.
type writers struct {
	seq [isa.NumRegs]uint64
	op  [isa.NumRegs]*backend.Op
}

// Redirect is the recovery checkpoint for the single outstanding divergence.
type Redirect struct {
	CulpritSeq uint64      // spec seq of the op whose execution reveals the misprediction
	Culprit    *backend.Op // that op
	TrueSeq    uint64      // oracle seq fetch resumes from
	TruePC     uint64      // address of that instruction
	retireHist bpred.History

	// lastWriter is the dependence table as of the first wrong-path
	// instruction, restored on redirect. A divergence at a fragment
	// boundary (every PC matched but the ID did not) has no wrong-path
	// instruction in the fragment, and restores an empty table.
	lastWriter writers
}

// FetchedFrag is one generated fragment with everything the fetch and
// rename stages need.
type FetchedFrag struct {
	Frag *frag.Fragment
	Ops  []*backend.Op // parallel to Frag.Insts
	// WrongFrom is the index of the first wrong-path instruction
	// (len(Ops) when the fragment is fully correct-path).
	WrongFrom int

	// opsStore is the inline backing for Ops: a recycled FetchedFrag
	// carries its micro-ops with it, so materialize resets ops in place
	// instead of allocating per instruction. opsPtrs is initialized once
	// at construction (opsPtrs[i] = &opsStore[i]) and Ops re-sliced from
	// it per use; the indirection keeps the public []*backend.Op shape the
	// stages and back-end share.
	opsStore [frag.AbsMaxLen]backend.Op
	opsPtrs  [frag.AbsMaxLen]*backend.Op
}

// ErrNoFragment is returned when the stream cannot produce a fragment this
// cycle (wrong-path fetch ran off the code image, or the predictor has no
// target after an indirect jump on the wrong path). The front-end simply
// idles; the pending redirect will restart fetch.
var ErrNoFragment = errors.New("core: no fragment available")

// NewStream builds a stream over the given oracle for p; a nil oracle means
// a fresh live emulator (the cold path). An artifact-cache tape reader
// passed here replays a recorded dynamic stream instead — bit-identical by
// the tape package's contract, so the rest of the front-end cannot tell the
// difference. The stream reads the oracle in blocks, never more than
// oracleLookahead instructions past its cursor. A zero Heuristics value
// selects the paper's fragment selection.
//
// frags is the fragment memo the stream builds through; nil gives the
// stream a memo of its own. A non-nil memo must have been made for p under
// h (frag.Memo.For) and must not be in use by a concurrent stream or
// warmer; sharing it with the functional warmer that ran before this
// stream lets each fragment be built once for both.
func NewStream(p *program.Program, pred *bpred.TracePredictor, h frag.Heuristics, oracle emu.Oracle, frags *frag.Memo) *Stream {
	if oracle == nil {
		oracle = emu.New(p)
	}
	if frags == nil {
		frags = frag.NewMemo(p, h)
	}
	s := &Stream{
		mach:    oracle,
		pred:    pred,
		frags:   frags,
		heur:    frags.Heuristics(),
		nextSeq: 1,
		onTrue:  true,
	}
	s.ffPool = pool.NewFreeList(func() *FetchedFrag {
		ff := &FetchedFrag{}
		for i := range ff.opsStore {
			ff.opsPtrs[i] = &ff.opsStore[i]
		}
		return ff
	})
	s.refill()
	return s
}

// RecycleFrag returns ff to the stream's free list. The owning Unit calls
// this once it has proven no reference survives: ff's ops have all left the
// back-end window and ff is not the stream's divergence bookkeeping target
// (see PrevLastSeq).
func (s *Stream) RecycleFrag(ff *FetchedFrag) { s.ffPool.Put(ff) }

// PrevLastSeq returns the sequence number of the last op of the most
// recently generated fragment (ok=false when none is retained). That op is
// the one live pointer the stream keeps into previously issued state — a
// divergence detected at a fragment boundary flags it retroactively as the
// mispredict point — so its fragment must not be recycled.
func (s *Stream) PrevLastSeq() (uint64, bool) {
	if s.prevLastOp == nil {
		return 0, false
	}
	return s.prevLastOp.Seq, true
}

// refill drops the lookahead entries below trueCursor and tops the
// lookahead up to oracleLookahead instructions with one block read of
// exactly the missing count: a sampled run's next gap starts where the
// oracle stopped, so the stream must not read further ahead.
func (s *Stream) refill() {
	s.head += int(s.trueCursor - s.lookBase)
	s.lookBase = s.trueCursor
	missing := oracleLookahead - (s.end - s.head)
	if missing == 0 || s.oracleErr != nil || s.mach.Halted() {
		return
	}
	if s.end+missing > lookCap {
		copy(s.lookEA[:], s.lookEA[s.head:s.end])
		s.end = copy(s.look[:], s.look[s.head:s.end])
		s.head = 0
	}
	n, err := s.mach.ReadBlock(s.look[s.end:s.end+missing], s.lookEA[s.end:s.end+missing])
	s.end += n
	if err != nil {
		s.oracleErr = fmt.Errorf("core: oracle failed at seq %d: %w", s.lookBase+uint64(s.end-s.head), err)
	}
}

// Err returns the first error the oracle returned, or nil. The stream
// cannot tell the true path past that point, so the owner must stop the
// run rather than treat the short lookahead as the program's end.
func (s *Stream) Err() error { return s.oracleErr }

// Attach wires the optional event sink and pipeline metrics into the
// stream. Called once by NewUnit; nil values are fine.
func (s *Stream) Attach(sink trace.Sink, met *metrics.Pipeline) {
	s.sink = sink
	s.met = met
}

// Tick tells the stream the current cycle (for event timestamps).
func (s *Stream) Tick(now uint64) { s.now = now }

// Done reports whether the true path has been fully generated (the fragment
// containing halt was produced) and no redirect is pending.
func (s *Stream) Done() bool { return s.doneTrue && s.pending == nil }

// Pending returns the outstanding redirect, if any.
func (s *Stream) Pending() *Redirect { return s.pending }

// Accuracy returns generated-fragment statistics.
func (s *Stream) Accuracy() (generated, correct int64) {
	return s.fragsGenerated, s.fragsCorrect
}

// Next generates the next speculative fragment. The caller enforces the
// one-prediction-per-cycle limit. After the program's halt fragment has
// been generated, Next returns ErrNoFragment forever.
func (s *Stream) Next() (*FetchedFrag, error) {
	if s.onTrue {
		if s.doneTrue {
			return nil, ErrNoFragment
		}
		return s.nextTruePath()
	}
	return s.nextWrongPath()
}

// nextTruePath generates a fragment starting at the known correct PC,
// using the predictor for directions and detecting divergence inline.
func (s *Stream) nextTruePath() (*FetchedFrag, error) {
	s.refill()
	look := s.look[s.head:s.end] // look[i] is the true instruction at trueCursor+i
	if len(look) == 0 {
		// Lookahead empty: program halted exactly at cursor (or the
		// oracle failed, which Err reports).
		s.doneTrue = true
		return nil, ErrNoFragment
	}
	trueStart := &look[0]

	// Determine the true fragment at this position, then predict and train
	// from one hash of the history. On the true path the speculative and
	// retirement histories are equal: a correct fragment pushes the same ID
	// onto both, and a redirect restores both from one checkpoint.
	trueLen, trueID := s.splitTrue(look)
	pred := s.pred.PredictUpdate(&s.specHist, trueID)

	// Choose the predicted ID: the predictor's if it agrees on the start
	// PC, otherwise a not-taken walk from the known start.
	id := frag.ID{StartPC: trueStart.PC}
	if pred.Valid && pred.ID.StartPC == trueStart.PC {
		id = pred.ID
	}
	f := s.frags.Get(id)
	if f.Len() == 0 {
		return nil, fmt.Errorf("core: empty fragment at true PC %#x", trueStart.PC)
	}

	// Compare against the oracle.
	m := 0
	for ; m < f.Len() && m < len(look); m++ {
		if look[m].PC != f.PCs[m] {
			break
		}
	}

	if m == f.Len() && f.ID == trueID {
		// Fully correct fragment (boundary and directions included).
		ff := s.materialize(f, m, nil)
		s.fragsGenerated++
		s.specHist.Push(f.ID.Key())
		s.fragsCorrect++
		s.retireHist.Push(trueID.Key())
		s.trueCursor += uint64(trueLen)
		if f.Insts[f.Len()-1].Op == isa.OpHalt {
			s.doneTrue = true
		}
		return ff, nil
	}

	// Divergence. Instructions [0,m) are correct path and will commit;
	// the divergence resolves when the culprit executes. materialize
	// checkpoints the last-writer table into the redirect record as of the
	// first wrong-path instruction.
	red := s.redFree
	s.redFree = nil
	if red == nil {
		red = new(Redirect)
	}
	*red = Redirect{}
	prevLast := s.prevLastOp
	ff := s.materialize(f, m, &red.lastWriter)
	s.fragsGenerated++
	s.specHist.Push(f.ID.Key())
	s.retireHist.Push(trueID.Key())
	red.TrueSeq = s.trueCursor + uint64(m)
	red.retireHist = s.retireHist
	if m < len(look) {
		red.TruePC = look[m].PC
	} else {
		// The true path ends inside this fragment (halt reached); the
		// correct prefix will commit and the program finishes. Treat
		// the remaining suffix as wrong path resolved by the last
		// correct instruction.
		red.TruePC = 0
	}
	if m > 0 {
		red.Culprit = ff.Ops[m-1]
	} else {
		// The fragment's first instruction is already wrong: the culprit
		// is the previous fragment's last op, which may be in the window.
		red.Culprit = prevLast
		s.late = prevLast
	}
	if red.Culprit == nil {
		// Divergence at the very first fragment with no predecessor
		// (cannot happen: the first fragment starts at the entry PC,
		// which is forced correct for at least one instruction).
		return nil, fmt.Errorf("core: divergence with no culprit at %#x", trueStart.PC)
	}
	red.CulpritSeq = red.Culprit.Seq
	red.Culprit.MispredictPoint = true
	s.pending = red
	s.onTrue = false
	return ff, nil
}

// splitTrue computes the true fragment boundary and ID at the start of the
// lookahead look. It hands Split the lookahead itself, cut at
// frag.AbsMaxLen: no fragment is longer, and Split stops at the heuristics'
// first stop or at the end of the lookahead.
func (s *Stream) splitTrue(look []frag.Dyn) (int, frag.ID) {
	return s.heur.Split(look[:min(len(look), frag.AbsMaxLen)])
}

// nextWrongPath generates a fragment beyond the divergence point: pure
// speculation through the static image, steered by the predictor where it
// has an opinion and by fallthrough otherwise.
func (s *Stream) nextWrongPath() (*FetchedFrag, error) {
	start, known := s.successorOf(s.prevFrag)
	pred := s.pred.Predict(&s.specHist)
	var id frag.ID
	switch {
	case known && pred.Valid && pred.ID.StartPC == start:
		id = pred.ID
	case known:
		id = frag.ID{StartPC: start}
	case pred.Valid:
		id = pred.ID
	default:
		return nil, ErrNoFragment
	}
	f := s.frags.Get(id)
	if f.Len() == 0 {
		return nil, ErrNoFragment
	}
	ff := s.materialize(f, 0, nil) // entirely wrong path
	s.fragsGenerated++
	s.specHist.Push(f.ID.Key())
	return ff, nil
}

// successorOf computes the address the speculative stream continues at
// after fragment f, when that is statically determined (everything except
// indirect terminators).
func (s *Stream) successorOf(f *frag.Fragment) (uint64, bool) {
	if f == nil || f.Len() == 0 {
		return 0, false
	}
	last := f.Insts[f.Len()-1]
	lastPC := f.PCs[f.Len()-1]
	switch {
	case last.IsIndirect():
		return 0, false
	case last.IsDirectJump():
		return uint64(last.Imm) * isa.InstBytes, true
	case last.IsCondBranch():
		if taken, _ := f.DirectionOf(f.Len() - 1); taken {
			return uint64(int64(lastPC) + isa.InstBytes + int64(last.Imm)*isa.InstBytes), true
		}
		return lastPC + isa.InstBytes, true
	default:
		return lastPC + isa.InstBytes, true
	}
}

// materialize assigns sequence numbers, dependence edges and oracle
// effective addresses to the fragment's instructions. wrongFrom is the
// index of the first wrong-path instruction: 0 for fully wrong-path
// fragments, the matched prefix length on the true path (f.Len() when fully
// correct). If ckpt is non-nil, the last-writer table as of the instruction
// at wrongFrom is copied into it; it is left untouched when the fragment has
// no wrong-path instruction.
func (s *Stream) materialize(f *frag.Fragment, wrongFrom int, ckpt *writers) *FetchedFrag {
	ff := s.ffPool.Get()
	ff.Frag = f
	ff.Ops = ff.opsPtrs[:f.Len()]
	ff.WrongFrom = wrongFrom
	for i := range f.Decode {
		if i == wrongFrom && ckpt != nil {
			*ckpt = s.lastWriter
		}
		// Reset the recycled op in place, field by field: the storage has
		// left the window, and a composite literal would build a whole
		// temporary Op and copy it.
		op := ff.Ops[i]
		op.Seq = s.nextSeq
		op.PC = f.PCs[i]
		op.Inst = f.Insts[i]
		op.Producers = [3]uint64{}
		op.ProdOps = [3]*backend.Op{}
		op.NProd = 0
		op.WrongPath = i >= wrongFrom
		op.EA = 0
		op.MispredictPoint = false
		op.ResetExec()
		s.nextSeq++
		// Dependence edges from the speculative last-writer table, read
		// through the decode FromCode stored.
		d := &f.Decode[i]
		for _, src := range d.Src[:d.NSrc] {
			if w := s.lastWriter.seq[src]; w != 0 {
				op.Producers[op.NProd] = w - 1
				op.ProdOps[op.NProd] = s.lastWriter.op[src]
				op.NProd++
			}
		}
		if d.HasDest {
			s.lastWriter.seq[d.Dest] = op.Seq + 1
			s.lastWriter.op[d.Dest] = op
		}
		if d.Mem && !op.WrongPath {
			// A correct-path op is in the lookahead, which starts at
			// trueCursor.
			if j := s.head + i; j < s.end {
				op.EA = s.lookEA[j]
			}
		}
	}
	if f.Len() > 0 {
		s.prevFrag = f
		s.prevLastOp = ff.Ops[f.Len()-1]
	}
	if s.met != nil {
		s.met.FragLen.Observe(int64(f.Len()))
	}
	if s.sink != nil {
		s.sink.Emit(trace.Event{
			Cycle: s.now,
			Kind:  trace.KindFragPredict,
			Seq:   ff.Ops[0].Seq,
			Frag:  ff.Ops[0].Seq,
			PC:    f.PCs[0],
			N:     int32(f.Len()),
			Arg:   uint64(ff.WrongFrom),
		})
	}
	return ff
}

// TakeLateCulprit returns, once, a culprit the stream flagged as a
// mispredict point after it may have entered the back-end window (nil if
// none). The owning Unit passes it to the back-end's NoteMispredictPoint.
func (s *Stream) TakeLateCulprit() *backend.Op {
	op := s.late
	s.late = nil
	return op
}

// ApplyRedirect consumes the pending redirect after the back-end resolved
// the culprit: speculation state is rewound to the divergence point and the
// stream resumes on the true path. It returns the redirect so the simulator
// can squash the window (every op with Seq > CulpritSeq is wrong-path).
func (s *Stream) ApplyRedirect() *Redirect {
	red := s.pending
	if red == nil {
		return nil
	}
	s.pending = nil
	s.onTrue = true
	s.trueCursor = red.TrueSeq
	s.specHist = red.retireHist
	s.retireHist = red.retireHist
	s.lastWriter = red.lastWriter
	s.prevFrag = nil
	s.prevLastOp = nil
	if red.TruePC == 0 {
		// True path ended inside the mispredicted fragment.
		s.doneTrue = true
	}
	s.refill()
	s.redFree = red
	return red
}
