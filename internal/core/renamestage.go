package core

import (
	"time"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/rename"
)

// fragState tracks one in-flight fragment between fetch and rename.
type fragState struct {
	ff  *FetchedFrag
	buf *frag.Buffer // pool buffer (parallel fetch only; nil otherwise)

	// effLen is the number of valid instructions: normally the fragment
	// length, shortened when a redirect truncates the fragment at its
	// mispredicted instruction (the correct prefix still renames and
	// commits).
	effLen int

	fetched  int  // instructions available to rename
	complete bool // fetched == effLen

	// missPending marks a fragment with an outstanding parked miss
	// (switch-on-miss policy): no sequencer should pick it up until the
	// fill delivers.
	missPending bool

	// enteredAt is the cycle the fragment entered the queue (buffer
	// residency measurement).
	enteredAt uint64

	renamed   int
	firstRead bool // rename has touched this fragment (for §3.3 stats)

	// renamedAtCycleStart is delayed rename's per-cycle snapshot of
	// renamed, taken before any renamer advances (inter-renamer mapping
	// updates become visible only next cycle).
	renamedAtCycleStart int

	// Parallel rename state.
	phase1Done bool
	loPred     rename.LiveOuts
	loHit      bool
}

func (fs *fragState) len() int { return fs.effLen }

func (fs *fragState) firstSeq() uint64 { return fs.ff.Ops[0].Seq }

// markFetched records newly arrived instructions.
func (fs *fragState) markFetched(n int) {
	fs.fetched += n
	if fs.fetched >= fs.len() {
		fs.fetched = fs.len()
		fs.complete = true
	}
	if fs.buf != nil {
		fs.buf.MarkFetched(n)
	}
}

// renameStage is the rename half of a front-end.
type renameStage interface {
	// cycle consumes available instructions from the program-ordered
	// fragment queue, inserting renamed ops into the back-end. Fully
	// renamed fragments land in the queue's popped list, which the
	// owning Unit drains once per cycle.
	cycle(now uint64, queue *fragQueue)
	// redirect clears any in-progress rename state after a redirect has
	// truncated or dropped fragments of the queue.
	redirect(queue *fragQueue)
}

// reservation counts the window slots held for fragments that have been
// admitted to a renamer but have not inserted every op yet. Both
// out-of-order renamers (parallel and delayed) admit fragments in order
// against it, so a younger fragment is never admitted into slots an older
// one still needs. A redirect or squash changes what the surviving
// fragments still hold, so it rebuilds the count from the queue.
type reservation int

// admit marks fs eligible for a renamer when the window has room for all
// of its ops on top of the slots already reserved.
func (r *reservation) admit(be Backend, fs *fragState) bool {
	if be.FreeSlots()-int(*r) < fs.len() {
		return false
	}
	fs.phase1Done = true
	*r += reservation(fs.len())
	return true
}

// insert hands one op of an admitted fragment to the back-end, consuming
// one reserved slot.
func (r *reservation) insert(be Backend, op *backend.Op) {
	be.Insert(op)
	*r--
}

// rebuild recomputes the count from the admitted fragments still queued.
func (r *reservation) rebuild(q *fragQueue) {
	*r = 0
	for i := 0; i < q.size(); i++ {
		if fs := q.at(i); fs.phase1Done {
			*r += reservation(fs.len() - fs.renamed)
		}
	}
}

// fragQueue is the program-ordered list of in-flight fragments. Fragments
// that finish renaming are moved to popped, which the owning Unit drains
// once per cycle to release fragment buffers — the single place buffers are
// given back, so no pop path can leak them.
type fragQueue struct {
	frags  []*fragState
	popped []*fragState
}

func (q *fragQueue) push(fs *fragState, now uint64) {
	fs.enteredAt = now
	q.frags = append(q.frags, fs)
}
func (q *fragQueue) empty() bool         { return len(q.frags) == 0 }
func (q *fragQueue) at(i int) *fragState { return q.frags[i] }
func (q *fragQueue) size() int           { return len(q.frags) }

// unrenamedOps returns the number of fetched-or-pending instructions not
// yet renamed (fetch back-pressure).
func (q *fragQueue) unrenamedOps() int {
	n := 0
	for _, fs := range q.frags {
		n += fs.len() - fs.renamed
	}
	return n
}

// oldestUnrenamedSeq returns the smallest op seq not yet renamed.
func (q *fragQueue) oldestUnrenamedSeq() (uint64, bool) {
	for _, fs := range q.frags {
		if fs.renamed < fs.len() {
			return fs.ff.Ops[fs.renamed].Seq, true
		}
	}
	return 0, false
}

// removeRenamed pops fully renamed fragments off the front into popped.
func (q *fragQueue) removeRenamed() {
	i := 0
	for i < len(q.frags) && q.frags[i].renamed == q.frags[i].len() {
		q.popped = append(q.popped, q.frags[i])
		i++
	}
	if i > 0 {
		q.frags = q.frags[:copy(q.frags, q.frags[i:])]
	}
}

// drainPopped returns and clears the fragments popped since the last call.
// The returned slice aliases the queue's scratch storage and is valid only
// until the next rename cycle.
func (q *fragQueue) drainPopped() []*fragState {
	p := q.popped
	q.popped = q.popped[:0]
	return p
}

func (q *fragQueue) clear() { q.frags = q.frags[:0] }

// sequentialRename is the monolithic renamer: it drains the oldest fragment
// only, up to width instructions per cycle, switching fragments at most
// once per cycle — §3.4's serialization. An incomplete oldest fragment
// blocks everything younger, which is exactly the head-of-line effect
// parallel rename removes.
type sequentialRename struct {
	width int
	be    Backend
	stats *Stats
	obs   *observer
}

func newSequentialRename(width int, be Backend, stats *Stats, obs *observer) *sequentialRename {
	return &sequentialRename{width: width, be: be, stats: stats, obs: obs}
}

func (sr *sequentialRename) redirect(*fragQueue) {}

func (sr *sequentialRename) cycle(now uint64, q *fragQueue) {
	if q.empty() {
		return
	}
	fs := q.at(0)
	if !fs.firstRead {
		// The fragment just reached the head of the queue: sample the
		// §3.3 statistic (was it fully constructed by the time rename
		// asked for it?).
		fs.firstRead = true
		sr.stats.FragReadByRename++
		if fs.complete {
			sr.stats.FragCompleteAtRename++
		}
		// Monolithic rename has no allocation phase; admission to the
		// renamer is its phase 1.
		sr.obs.phase1(now, fs)
	}
	// Rename consumes the oldest fragment's instructions as they arrive
	// (it is a FIFO), but never reads past it into younger fragments: an
	// incomplete oldest fragment — a sequencer still fetching, or stalled
	// on a cache miss — blocks every complete younger fragment behind it
	// (§3.4). That cross-fragment serialization is what parallel rename
	// removes.
	n := fs.fetched - fs.renamed
	if n > sr.width {
		n = sr.width
	}
	if free := sr.be.FreeSlots(); n > free {
		n = free
	}
	start := fs.renamed
	for i := 0; i < n; i++ {
		sr.be.Insert(fs.ff.Ops[fs.renamed])
		fs.renamed++
		sr.stats.Renamed++
	}
	sr.obs.phase2(now, fs, start, n, 0)
	if fs.renamed == fs.len() {
		q.removeRenamed()
	}
}

// parallelRename is the paper's §4 mechanism: phase 1 serial (one fragment
// per cycle, in order, gated on a live-out prediction and reorder-buffer
// space), phase 2 parallel across as many renamers as configured, each
// renaming its fragment at its own width as instructions arrive.
type parallelRename struct {
	n     int
	width int
	be    Backend
	stats *Stats
	obs   *observer
	lo    *rename.LiveOutPredictor
	prof  *obs.StageProf // optional phase-1/phase-2 wall-time attribution

	reserved reservation // window slots reserved by phase 1, not yet inserted

	// mispredictSquash asks the simulator to squash ops younger than the
	// returned seq; the front-end polls it after cycle().
	squashFrom  uint64
	havePending bool

	// assigned is the per-cycle renamer-assignment scratch, reused across
	// cycles.
	assigned []*fragState
}

func newParallelRename(n, width int, lo *rename.LiveOutPredictor, be Backend, stats *Stats, obs *observer) *parallelRename {
	return &parallelRename{n: n, width: width, be: be, stats: stats, obs: obs, lo: lo}
}

func (pr *parallelRename) redirect(q *fragQueue) {
	pr.reserved.rebuild(q)
	pr.havePending = false
}

// takeSquash returns a pending live-out-misprediction squash request.
func (pr *parallelRename) takeSquash() (uint64, bool) {
	if !pr.havePending {
		return 0, false
	}
	pr.havePending = false
	return pr.squashFrom, true
}

func (pr *parallelRename) cycle(now uint64, q *fragQueue) {
	// Sampled self-profiling: on sampled cycles the serial allocation
	// phase and the concurrent renaming phase are timed separately
	// (their sum is a sub-breakdown of the Unit-level rename time).
	profiled := pr.prof.Sampled(now)
	var tP1, tP2 time.Time
	if profiled {
		tP1 = time.Now()
	}

	// Phase 1: the oldest fragment without it, strictly in order.
	for i := 0; i < q.size(); i++ {
		fs := q.at(i)
		if fs.phase1Done {
			continue
		}
		lo, hit := pr.lo.Predict(fs.ff.Frag.ID)
		if !hit {
			// Unpredicted fragment: fall back to serial rename —
			// phase 1 may only proceed once every older fragment
			// is fully renamed, at which point the true live-outs
			// are computable (the paper's conservative path).
			pr.stats.LiveOutMisses++
			if i != 0 || fs.renamed != 0 {
				// Can't serialize yet; phase 1 stalls entirely
				// (it is in-order).
				goto phase2
			}
			lo = rename.ComputeLiveOuts(fs.ff.Frag.Insts)
			hit = true
		}
		if !pr.reserved.admit(pr.be, fs) {
			goto phase2 // no reorder-buffer space: phase 1 stalls
		}
		fs.loPred = lo
		fs.loHit = hit
		pr.stats.LiveOutPredicted++
		pr.obs.phase1(now, fs)
		break // one fragment per cycle
	}

phase2:
	if profiled {
		tP2 = time.Now()
		pr.prof.Add(obs.StageRenameP1, tP2.Sub(tP1))
	}
	// Phase 2: the renamers take the oldest phase-1-complete fragments
	// that still have instructions to rename, one fragment per renamer,
	// and advance concurrently.
	assigned := pr.assigned[:0]
	for i := 0; i < q.size() && len(assigned) < pr.n; i++ {
		fs := q.at(i)
		if !fs.phase1Done || fs.renamed == fs.len() {
			continue
		}
		assigned = append(assigned, fs)
	}
	pr.assigned = assigned

	oldestUnrenamed, haveOldest := q.oldestUnrenamedSeq()
	for lane, fs := range assigned {
		if !fs.firstRead {
			fs.firstRead = true
			pr.stats.FragReadByRename++
			if fs.complete {
				pr.stats.FragCompleteAtRename++
			}
		}
		n := fs.fetched - fs.renamed
		if n > pr.width {
			n = pr.width
		}
		start := fs.renamed
		for i := 0; i < n; i++ {
			op := fs.ff.Ops[fs.renamed]
			if haveOldest {
				for p := 0; p < op.NProd; p++ {
					if op.Producers[p] >= oldestUnrenamed && op.Producers[p] < op.Seq {
						pr.stats.InstrsRenamedBeforeSource++
						break
					}
				}
			}
			pr.reserved.insert(pr.be, op)
			fs.renamed++
			pr.stats.Renamed++
		}
		pr.obs.phase2(now, fs, start, n, lane)
		if fs.renamed == fs.len() {
			pr.finishFragment(fs, q)
		}
	}
	// A live-out misprediction detected this cycle must reset every
	// younger fragment BEFORE the pop below, or a younger fragment that
	// also finished this cycle would leave the queue with its ops
	// squashed from the window but never re-renamed.
	if pr.havePending {
		for i := 0; i < q.size(); i++ {
			fs := q.at(i)
			if fs.firstSeq() < pr.squashFrom {
				continue
			}
			fs.renamed = 0
			fs.phase1Done = false
			for _, op := range fs.ff.Ops[:fs.len()] {
				op.ResetExec()
			}
		}
	}
	q.removeRenamed()
	if profiled {
		pr.prof.Add(obs.StageRenameP2, time.Since(tP2))
	}
}

// finishFragment verifies the live-out prediction against the fragment's
// actual writes (§4.3) and trains the predictor. A detected misprediction
// requests a squash of every younger fragment.
func (pr *parallelRename) finishFragment(fs *fragState, q *fragQueue) {
	actual := rename.ComputeLiveOuts(fs.ff.Frag.Insts)
	if fs.loHit {
		if kind := rename.CheckPrediction(fs.loPred, fs.ff.Frag.Insts); kind != rename.PredictionCorrect {
			pr.stats.LiveOutMispredict++
			// Squash all future fragments: they may have consumed
			// wrong mappings.
			for i := 0; i < q.size(); i++ {
				if other := q.at(i); other.firstSeq() > fs.firstSeq() {
					pr.requestSquash(other.firstSeq())
					break
				}
			}
		}
	}
	pr.lo.Train(fs.ff.Frag.ID, actual)
}

func (pr *parallelRename) requestSquash(seq uint64) {
	if !pr.havePending || seq < pr.squashFrom {
		pr.squashFrom = seq
		pr.havePending = true
	}
}
