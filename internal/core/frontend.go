package core

import (
	"fmt"
	"time"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/pool"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/tcache"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// ExecBackend is the back-end contract the front-ends drive.
type ExecBackend interface {
	FreeSlots() int
	Insert(op *backend.Op)
	SquashFrom(seq uint64) int
	// SetCommitBarrier communicates the lowest op sequence rename has
	// not yet delivered (^uint64(0) = none outstanding): commit must not
	// pass an allocated-but-unwritten reorder-buffer slot.
	SetCommitBarrier(seq uint64)
	// OldestSeq returns the sequence number of the oldest op still in
	// the window (ok=false when empty). The front-end uses it to decide
	// when a renamed fragment's op storage can be recycled.
	OldestSeq() (uint64, bool)
	// NoteMispredictPoint announces an op flagged as a mispredict point
	// after it may have entered the window.
	NoteMispredictPoint(op *backend.Op)
}

// retiredFrag is a fully renamed fragment whose op storage is waiting for
// the back-end to finish with its ops before the FetchedFrag is recycled.
type retiredFrag struct {
	ff       *FetchedFrag
	firstSeq uint64
	lastSeq  uint64
}

// Unit is a complete front-end: a fetch engine composed with a rename
// stage over a shared fragment queue.
type Unit struct {
	cfg    Config
	stream *Stream
	engine fetchEngine
	stage  renameStage
	queue  fragQueue
	pool   *frag.Pool // parallel fetch only
	tc     *tcache.Cache
	be     ExecBackend
	stats  Stats
	obs    observer
	prof   *obs.StageProf

	fetchAllowedAt uint64
	pr             *parallelRename // non-nil when rename is parallel

	fsp *fsPool // recycles fragState entries

	// retireq is the FIFO of fully renamed fragments whose FetchedFrags
	// (and inline op storage) are still referenced by the back-end window
	// or the stream's previous-fragment pointer. drainRetired recycles
	// entries once both references have moved past them.
	retireq    []retiredFrag
	retireHead int

	// drops is the per-redirect scratch of fully-younger dropped
	// fragments, recycled after the engine and stage drop their refs.
	drops []*fragState
}

// NewUnit builds the front-end described by cfg over the given stream,
// instruction-cache path and back-end.
func NewUnit(cfg Config, stream *Stream, ic *ICache, be ExecBackend) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{cfg: cfg, stream: stream, be: be, prof: cfg.Prof, fsp: newFSPool()}
	u.obs = observer{sink: cfg.Sink, met: cfg.Metrics}
	stream.Attach(cfg.Sink, cfg.Metrics)

	switch cfg.Fetch {
	case FetchSequential:
		u.engine = newSeqFetch(ic, stream, &u.stats, &u.obs, u.fsp, cfg.FetchWidth)
	case FetchTraceCache:
		u.tc = cfg.TC
		if u.tc == nil {
			u.tc = tcache.New(tcache.Config{SizeBytes: cfg.TraceCache, Ways: 2})
		}
		u.engine = newTCFetch(ic, u.tc, stream, &u.stats, &u.obs, u.fsp, cfg.FetchWidth)
	case FetchParallel:
		u.pool = frag.NewPool(cfg.FragBuffers)
		u.engine = newPFFetch(ic, stream, &u.stats, &u.obs, u.pool, u.fsp, cfg.Sequencers, cfg.SeqWidth, cfg.SwitchOnMiss)
	default:
		return nil, fmt.Errorf("core: unknown fetch kind %v", cfg.Fetch)
	}

	switch cfg.Rename {
	case RenameSequential:
		u.stage = newSequentialRename(cfg.RenameWidth, be, &u.stats, &u.obs)
	case RenameParallel:
		lo := cfg.LiveOutPred
		if lo == nil {
			lo = rename.NewLiveOutPredictor(cfg.LiveOut)
		}
		u.pr = newParallelRename(cfg.Renamers, cfg.RenWidth, lo, be, &u.stats, &u.obs)
		u.pr.prof = cfg.Prof
		u.stage = u.pr
	case RenameDelayed:
		u.stage = newDelayedRename(cfg.Renamers, cfg.RenWidth, be, &u.stats, &u.obs)
	default:
		return nil, fmt.Errorf("core: unknown rename kind %v", cfg.Rename)
	}
	return u, nil
}

// Stats exposes the front-end counters.
func (u *Unit) Stats() *Stats { return &u.stats }

// TraceCache exposes the trace cache (nil for non-TC front-ends).
func (u *Unit) TraceCache() *tcache.Cache { return u.tc }

// Pool exposes the fragment buffer pool (nil unless parallel fetch).
func (u *Unit) Pool() *frag.Pool { return u.pool }

// Cycle advances fetch then rename by one cycle. On sampled cycles (see
// obs.StageProf) the two halves are timed for host-side wall-time
// attribution; everywhere else the profiler costs a single branch.
func (u *Unit) Cycle(now uint64) {
	u.stats.Cycles++
	u.stream.Tick(now)
	if u.prof.Sampled(now) {
		t0 := time.Now()
		u.cycleFetch(now)
		t1 := time.Now()
		u.cycleRename(now)
		u.prof.Add(obs.StageFetch, t1.Sub(t0))
		u.prof.Add(obs.StageRename, time.Since(t1))
		return
	}
	u.cycleFetch(now)
	u.cycleRename(now)
}

// cycleFetch is the fetch half of a cycle. A divergence found at a
// fragment's first instruction flags an op that may already be in the
// window; the back-end learns of it here, before it next issues or commits.
func (u *Unit) cycleFetch(now uint64) {
	if now >= u.fetchAllowedAt {
		u.engine.cycle(now, &u.queue)
		if op := u.stream.TakeLateCulprit(); op != nil {
			u.be.NoteMispredictPoint(op)
		}
	}
}

// cycleRename is the rename half of a cycle: the rename stage itself plus
// the queue and squash bookkeeping that follows it.
func (u *Unit) cycleRename(now uint64) {
	u.stage.cycle(now, &u.queue)
	if seq, ok := u.queue.oldestUnrenamedSeq(); ok {
		u.be.SetCommitBarrier(seq)
	} else {
		u.be.SetCommitBarrier(^uint64(0))
	}
	for _, fs := range u.queue.drainPopped() {
		u.obs.retired(now, fs)
		if fs.buf != nil {
			u.pool.Release(fs.buf)
		}
		// The fragState itself is done — no fetch engine holds a
		// reference to a complete fragment (sequencers detach eagerly) —
		// but the FetchedFrag's inline op storage is still live in the
		// back-end window; park it until the window drains past it. The
		// first/last range uses the FULL op span (not effLen): a
		// redirect-truncated fragment's dropped tail ops were squashed,
		// but the stream's prevLastOp may still point into it.
		ff := fs.ff
		u.retireq = append(u.retireq, retiredFrag{
			ff:       ff,
			firstSeq: ff.Ops[0].Seq,
			lastSeq:  ff.Ops[len(ff.Ops)-1].Seq,
		})
		u.fsp.recycle(fs)
	}
	u.drainRetired()
	// Live-out misprediction recovery: the rename stage has already reset
	// every younger fragment's rename progress (§4.3: "on a misprediction,
	// all future fragments are squashed"); remove their ops from the
	// window and rebuild the reservation counter.
	if u.pr != nil {
		if seq, ok := u.pr.takeSquash(); ok {
			n := u.be.SquashFrom(seq)
			u.obs.squash(now, seq, n, trace.CauseLiveOutMispredict)
			u.pr.reserved.rebuild(&u.queue)
		}
	}
}

// drainRetired recycles FetchedFrags whose ops the back-end has finished
// with. The retire queue is in program order and the blockers (window
// occupancy, the stream's previous-fragment pointer) only move forward, so
// the scan stops at the first entry that is still referenced.
func (u *Unit) drainRetired() {
	oldest, haveOldest := u.be.OldestSeq()
	for u.retireHead < len(u.retireq) {
		rf := u.retireq[u.retireHead]
		if haveOldest && oldest <= rf.lastSeq {
			break // an op of this fragment is still in the window
		}
		if pl, ok := u.stream.PrevLastSeq(); ok && pl >= rf.firstSeq && pl <= rf.lastSeq {
			break // the stream still reads this fragment's last op
		}
		u.stream.RecycleFrag(rf.ff)
		u.retireq[u.retireHead] = retiredFrag{}
		u.retireHead++
	}
	if u.retireHead == len(u.retireq) {
		u.retireq = u.retireq[:0]
		u.retireHead = 0
	} else if u.retireHead >= 64 {
		n := copy(u.retireq, u.retireq[u.retireHead:])
		tail := u.retireq[n:]
		for i := range tail {
			tail[i] = retiredFrag{}
		}
		u.retireq = u.retireq[:n]
		u.retireHead = 0
	}
}

// Drained reports whether every fetched instruction has been renamed and
// handed to the back-end.
func (u *Unit) Drained() bool { return u.queue.unrenamedOps() == 0 }

// Redirect recovers the front-end after the back-end resolved the
// mispredicted instruction with the given sequence number: younger
// fragments are dropped, the fragment containing the culprit is truncated
// to its correct prefix, and fetch pauses for the configured pipeline
// bubble.
func (u *Unit) Redirect(now uint64, culpritSeq uint64) {
	u.stats.Redirects++
	kept := u.queue.frags[:0]
	drops := u.drops[:0]
	for _, fs := range u.queue.frags {
		first := fs.ff.Ops[0].Seq
		last := fs.ff.Ops[len(fs.ff.Ops)-1].Seq
		switch {
		case last <= culpritSeq:
			kept = append(kept, fs)
		case first > culpritSeq:
			// Fully younger: dropped. Its buffer is squashed below; the
			// fragState and FetchedFrag are recycled once the engine and
			// stage have dropped their references (the simulator squashed
			// its ops from the window before calling Redirect, and the
			// stream cleared its previous-fragment pointer).
			drops = append(drops, fs)
		default:
			// Contains the culprit: truncate to the correct prefix.
			n := int(culpritSeq-first) + 1
			fs.effLen = n
			if fs.fetched > n {
				fs.fetched = n
			}
			if fs.renamed > n {
				fs.renamed = n
			}
			fs.complete = fs.fetched == n
			kept = append(kept, fs)
		}
	}
	u.queue.frags = kept
	if u.pool != nil {
		u.pool.SquashYounger(culpritSeq + 1)
	}
	u.engine.redirect()
	u.stage.redirect(&u.queue)
	for i, fs := range drops {
		u.stream.RecycleFrag(fs.ff)
		u.fsp.recycle(fs)
		drops[i] = nil
	}
	u.drops = drops[:0]
	u.fetchAllowedAt = now + uint64(u.cfg.RedirectBubble)
}

// PoolStats aggregates the Unit's free-list traffic: fragState recycling
// plus the stream's FetchedFrag recycling.
func (u *Unit) PoolStats() pool.Stats {
	s := u.fsp.fl.Stats()
	s.Add(u.stream.PoolStats())
	return s
}
