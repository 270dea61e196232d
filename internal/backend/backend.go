// Package backend models the paper's aggressive out-of-order core (Table 1):
// a 256-entry instruction window, 16-wide commit, abundant functional units
// (16 integer ALUs, 4 integer multipliers, 4 FP adders, 1 FP multiplier,
// 4 load/store units), with load/store latency supplied by the data-cache
// hierarchy. The back-end is deliberately generous — the paper's point is to
// make the front-end the bottleneck — but it models true data-dependence
// wake-up, FU contention and in-order commit, because branch-resolution
// latency (and therefore the cost of a front-end misprediction) emerges from
// the dependence schedule.
package backend

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// Config sizes the back-end.
type Config struct {
	WindowSize  int
	CommitWidth int
	FUCounts    [isa.NumClasses]int
}

// DefaultConfig returns Table 1's back-end.
func DefaultConfig() Config {
	var fu [isa.NumClasses]int
	fu[isa.ClassIntALU] = 16
	fu[isa.ClassIntMul] = 4
	fu[isa.ClassFPAdd] = 4
	fu[isa.ClassFPMul] = 1
	fu[isa.ClassLoadStore] = 4
	return Config{WindowSize: 256, CommitWidth: 16, FUCounts: fu}
}

// Op is one in-flight instruction. The front-end fills identity and
// dependence fields at rename; the back-end owns scheduling state.
type Op struct {
	Seq  uint64 // speculative program order (squash key, commit order)
	PC   uint64
	Inst isa.Inst

	// Producers are the Seqs of the instructions producing this op's
	// register sources (up to 3; NProd valid entries). Ops whose
	// producers have left the window treat those sources as ready.
	Producers [3]uint64
	NProd     int

	WrongPath bool
	EA        uint64 // effective address for right-path memory ops

	// MispredictPoint marks the op whose execution reveals a front-end
	// misprediction; when it completes, the simulator redirects fetch.
	MispredictPoint bool

	issued bool
	done   uint64 // completion cycle (valid once issued)
}

// Issued reports whether the op has been selected for execution, and Done
// its completion cycle.
func (o *Op) Issued() bool { return o.issued }
func (o *Op) Done() uint64 { return o.done }

// ResetExec clears scheduling state so a squashed op can be re-inserted
// (live-out misprediction recovery re-renames squashed fragments).
func (o *Op) ResetExec() {
	o.issued = false
	o.done = 0
}

// Backend is the out-of-order execution engine. Its per-instruction
// bookkeeping allocates nothing in steady state: the in-flight ops live in
// a seq-ordered FIFO (order) plus an open-addressed seq index (window)
// sized once at construction, which answers the scheduler's one question
// about a producer — is that seq still in flight?
type Backend struct {
	cfg Config
	d   *mem.Cache // L1 data cache (loads/stores go through it)

	window seqIndex // in-flight ops by seq

	// order is the seq-ordered FIFO of in-flight ops. Commit advances head
	// instead of re-slicing the front (which loses front capacity and
	// forces periodic reallocation); the vacated prefix is compacted once
	// it reaches a window's worth of slots, so the backing array's
	// capacity — and the cycle loop's allocation count — stays constant.
	order []*Op
	head  int

	// res is the reused Resolution returned by Cycle; valid until the next
	// Cycle call (the simulator consumes it within the same cycle).
	res Resolution

	committed     int64
	wrongPathExec int64
	loadCount     int64

	// commitBarrier is the lowest sequence number not yet written into
	// the window by rename (reorder-buffer slots are allocated to older
	// fragments in order, so an op at or above the barrier cannot be the
	// true commit head even when every inserted op below it has
	// committed). Maintained by the front-end each cycle.
	commitBarrier uint64

	// CommitHook, if set, observes every committed op in program order —
	// instrumentation for correctness tests and tracing tools.
	CommitHook func(*Op)

	// Sink, if non-nil, receives a dispatch event for every op entering
	// the window and a commit event for every op retiring. Events carry
	// the cycle last passed to StartCycle.
	Sink trace.Sink

	now uint64 // current cycle (StartCycle), for Insert-time events
}

// New creates a back-end over the given data cache.
func New(cfg Config, dcache *mem.Cache) *Backend {
	if cfg.WindowSize <= 0 {
		cfg = DefaultConfig()
	}
	return &Backend{
		cfg:           cfg,
		d:             dcache,
		window:        newSeqIndex(cfg.WindowSize),
		commitBarrier: ^uint64(0),
	}
}

// StartCycle tells the back-end the current cycle before the front-end runs,
// so dispatch events emitted from Insert carry the right timestamp (Insert
// has no cycle parameter of its own).
func (b *Backend) StartCycle(now uint64) { b.now = now }

// SetCommitBarrier tells the back-end the lowest sequence number the rename
// stage has not yet delivered; commit never passes it. ^uint64(0) means no
// barrier (everything in flight has been delivered).
func (b *Backend) SetCommitBarrier(seq uint64) { b.commitBarrier = seq }

// FreeSlots returns how many more ops the window can accept.
func (b *Backend) FreeSlots() int { return b.cfg.WindowSize - (len(b.order) - b.head) }

// Insert places a renamed op into the window. Caller must respect
// FreeSlots: inserting into a full window panics. Ops must be inserted in
// non-decreasing Seq order per fragment, but fragments renamed in parallel
// may interleave; the window keeps seq order internally so commit stays
// program-ordered.
func (b *Backend) Insert(op *Op) {
	if b.FreeSlots() <= 0 {
		panic("backend: Insert into a full window (caller ignored FreeSlots)")
	}
	if b.Sink != nil {
		b.Sink.Emit(trace.Event{
			Cycle: b.now,
			Kind:  trace.KindDispatch,
			Seq:   op.Seq,
			PC:    op.PC,
			N:     1,
		})
	}
	b.window.put(op.Seq, op)
	// Common case: append (mostly ordered input); otherwise insert into
	// position to maintain seq order.
	n := len(b.order)
	if n == b.head || b.order[n-1].Seq < op.Seq {
		b.order = append(b.order, op)
		return
	}
	i := n
	for i > b.head && b.order[i-1].Seq > op.Seq {
		i--
	}
	b.order = append(b.order, nil)
	copy(b.order[i+1:], b.order[i:])
	b.order[i] = op
}

// ready reports whether all of op's producers have completed by cycle now.
func (b *Backend) ready(op *Op, now uint64) bool {
	for i := 0; i < op.NProd; i++ {
		if p := b.window.get(op.Producers[i]); p != nil {
			if !p.issued || p.done > now {
				return false
			}
		}
	}
	return true
}

// Resolution describes a completed mispredict-point op the simulator must
// act on.
type Resolution struct {
	Op    *Op
	Cycle uint64 // completion cycle
}

// Cycle advances the back-end by one cycle: select-and-issue oldest-first
// bounded by FU counts, then commit in order. It returns the number of
// instructions committed this cycle and the oldest mispredict-point op that
// completed at or before now (nil if none). The Resolution is reused across
// cycles: callers must consume it before the next Cycle call.
func (b *Backend) Cycle(now uint64) (int, *Resolution) {
	// Issue: oldest-first over unissued ops, bounded per FU class.
	var used [isa.NumClasses]int
	for _, op := range b.order[b.head:] {
		if op.issued {
			continue
		}
		class := op.Inst.Classify()
		if used[class] >= b.cfg.FUCounts[class] {
			continue
		}
		if !b.ready(op, now) {
			continue
		}
		used[class]++
		op.issued = true
		b.issue(op, now)
	}

	// Find the oldest resolved mispredict point.
	var res *Resolution
	for _, op := range b.order[b.head:] {
		if op.MispredictPoint && op.issued && op.done <= now {
			b.res = Resolution{Op: op, Cycle: op.done}
			res = &b.res
			break
		}
	}

	// Commit in order.
	committed := 0
	for committed < b.cfg.CommitWidth && b.head < len(b.order) {
		head := b.order[b.head]
		if head.Seq >= b.commitBarrier {
			break // an older op has not been renamed yet
		}
		if !head.issued || head.done > now || head.WrongPath {
			break
		}
		// A mispredict point must not commit before the simulator has
		// redirected; the simulator squashes younger ops at the
		// resolution cycle, after which the point itself commits.
		if head.MispredictPoint {
			break
		}
		b.order[b.head] = nil
		b.head++
		b.window.del(head.Seq)
		committed++
		b.committed++
		if b.Sink != nil {
			b.Sink.Emit(trace.Event{
				Cycle: now,
				Kind:  trace.KindCommit,
				Seq:   head.Seq,
				PC:    head.PC,
				N:     1,
			})
		}
		if b.CommitHook != nil {
			b.CommitHook(head)
		}
	}
	b.compact()
	return committed, res
}

// compact reclaims the committed prefix of the order FIFO once it reaches a
// window's worth of slots, keeping the backing array's capacity bounded by
// ~2x the window (the live span is at most WindowSize ops). Amortized cost
// is one pointer move per committed op.
func (b *Backend) compact() {
	if b.head == len(b.order) {
		b.order = b.order[:0]
		b.head = 0
		return
	}
	if b.head < b.cfg.WindowSize {
		return
	}
	n := copy(b.order, b.order[b.head:])
	clearTail := b.order[n:]
	for i := range clearTail {
		clearTail[i] = nil
	}
	b.order = b.order[:n]
	b.head = 0
}

// issue computes the op's completion time, charging FU latency and, for
// right-path memory ops, the data-cache access.
func (b *Backend) issue(op *Op, now uint64) {
	lat := uint64(op.Inst.Latency())
	if op.Inst.IsMem() && !op.WrongPath && b.d != nil {
		done := b.d.Access(op.EA, op.Inst.IsStore(), now)
		op.done = done + lat - 1
		b.loadCount++
		return
	}
	if op.WrongPath {
		b.wrongPathExec++
	}
	op.done = now + lat
}

// ClearMispredictPoint commits a resolved mispredict point after the
// simulator has handled the redirect: the op itself is on the correct path
// (it is the mispredicted branch, which really executed), so it simply
// stops blocking commit.
func (b *Backend) ClearMispredictPoint(op *Op) { op.MispredictPoint = false }

// SquashFrom removes every op with Seq >= seq (wrong-path ops after a
// redirect).
func (b *Backend) SquashFrom(seq uint64) int {
	n := len(b.order)
	cut := n
	for cut > b.head && b.order[cut-1].Seq >= seq {
		cut--
	}
	squashed := n - cut
	for i := cut; i < n; i++ {
		b.window.del(b.order[i].Seq)
		b.order[i] = nil
	}
	b.order = b.order[:cut]
	return squashed
}

// DebugHead describes the window head for deadlock diagnostics.
func (b *Backend) DebugHead() string {
	if b.head == len(b.order) {
		return "window empty"
	}
	h := b.order[b.head]
	return fmt.Sprintf("head seq=%d pc=%#x op=%v issued=%v done=%d wrong=%v mp=%v nprod=%d prods=%v inflight=%d",
		h.Seq, h.PC, h.Inst.Op, h.issued, h.done, h.WrongPath, h.MispredictPoint, h.NProd, h.Producers[:h.NProd], b.InFlight())
}

// OldestSeq returns the seq of the oldest in-flight op (ok=false if empty).
func (b *Backend) OldestSeq() (uint64, bool) {
	if b.head == len(b.order) {
		return 0, false
	}
	return b.order[b.head].Seq, true
}

// InFlight returns the number of ops in the window.
func (b *Backend) InFlight() int { return len(b.order) - b.head }

// Committed returns the total instructions committed.
func (b *Backend) Committed() int64 { return b.committed }

// WrongPathExecuted returns how many wrong-path ops were issued.
func (b *Backend) WrongPathExecuted() int64 { return b.wrongPathExec }
