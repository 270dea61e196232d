package backend

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
)

// refBackend is the scheduler the event-driven Backend replaced, kept as its
// reference: the in-flight ops indexed by seq in a map, and every cycle's
// issue and mispredict resolution a scan of the whole window. It drives its
// own copies of the ops (the scheduling fields live in the Op) over its own
// data cache, and ignores ProdOps.
type refBackend struct {
	cfg    Config
	d      *mem.Cache
	window map[uint64]*Op
	order  []*Op // seq-ordered; the committed prefix is sliced off

	commitBarrier                       uint64
	committed, wrongPathExec, loadCount int64
	commits                             []uint64 // committed seqs, in order
}

func newRefBackend(cfg Config, d *mem.Cache) *refBackend {
	return &refBackend{cfg: cfg, d: d, window: map[uint64]*Op{}, commitBarrier: ^uint64(0)}
}

func (b *refBackend) insert(op *Op) {
	b.window[op.Seq] = op
	i := len(b.order)
	for i > 0 && b.order[i-1].Seq > op.Seq {
		i--
	}
	b.order = append(b.order, nil)
	copy(b.order[i+1:], b.order[i:])
	b.order[i] = op
}

func (b *refBackend) ready(op *Op, now uint64) bool {
	for i := 0; i < op.NProd; i++ {
		if p := b.window[op.Producers[i]]; p != nil {
			if !p.issued || p.done > now {
				return false
			}
		}
	}
	return true
}

func (b *refBackend) issue(op *Op, now uint64) {
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

// cycle returns the ops committed and the oldest resolved mispredict point.
func (b *refBackend) cycle(now uint64) (int, *Op) {
	var used [isa.NumClasses]int
	for _, op := range b.order {
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
	var res *Op
	for _, op := range b.order {
		if op.MispredictPoint && op.issued && op.done <= now {
			res = op
			break
		}
	}
	n := 0
	for n < b.cfg.CommitWidth && len(b.order) > 0 {
		head := b.order[0]
		if head.Seq >= b.commitBarrier || !head.issued || head.done > now ||
			head.WrongPath || head.MispredictPoint {
			break
		}
		b.order = b.order[1:]
		delete(b.window, head.Seq)
		b.commits = append(b.commits, head.Seq)
		n++
		b.committed++
	}
	return n, res
}

func (b *refBackend) squashFrom(seq uint64) int {
	cut := len(b.order)
	for cut > 0 && b.order[cut-1].Seq >= seq {
		cut--
	}
	for _, op := range b.order[cut:] {
		delete(b.window, op.Seq)
	}
	n := len(b.order) - cut
	b.order = b.order[:cut]
	return n
}

// schedRig drives a Backend and a refBackend with one op stream, the way
// the front-ends do: ops get seqs in program order and dependence edges from
// a last-writer table (seq plus op storage, as core.Stream records them);
// fragments are renamed two at a time with their ops interleaved, and a
// commit barrier holds commit below the oldest op not yet inserted. The
// Backend's op storage is recycled LIFO as soon as its op has left the
// window for good, so producer pointers regularly name storage that now
// holds a newer op.
type schedRig struct {
	t    *testing.T
	rng  *rand.Rand
	b    *Backend
	ref  *refBackend
	twin map[*Op]*Op // Backend op storage -> its current reference copy

	free    []*Op     // recycled storage
	pending [2][]*Op  // generated, not yet inserted (one fragment each)
	kept    []*Op     // squashed ops awaiting re-insert, in seq order
	writer  [8]*Op    // last writer per register
	wseq    [8]uint64 // its seq+1 (0 = none)
	next    uint64    // next seq
	now     uint64    // next cycle
	stats   [6]int    // coverage: see the checks at the end of the test
	commits []uint64  // the Backend's committed seqs
}

var schedOps = [...]isa.Op{isa.OpAdd, isa.OpAdd, isa.OpMul, isa.OpFadd, isa.OpFmul, isa.OpLw, isa.OpSw}

// gen materializes one op into recycled storage, with up to two sources
// from the last-writer table and its reference twin.
func (r *schedRig) gen() *Op {
	var op *Op
	if n := len(r.free); n > 0 {
		op, r.free = r.free[n-1], r.free[:n-1]
	} else {
		op = new(Op)
	}
	code := schedOps[r.rng.Intn(len(schedOps))]
	*op = Op{Seq: r.next, PC: r.next * 4, Inst: isa.Inst{Op: code, Rd: 1, Rs1: 2, Rs2: 3}}
	r.next++
	for k := r.rng.Intn(3); k > 0; k-- {
		reg := r.rng.Intn(len(r.writer))
		if r.wseq[reg] != 0 {
			op.Producers[op.NProd] = r.wseq[reg] - 1
			op.ProdOps[op.NProd] = r.writer[reg]
			op.NProd++
		}
	}
	if !op.Inst.IsStore() {
		reg := r.rng.Intn(len(r.writer))
		r.writer[reg], r.wseq[reg] = op, op.Seq+1
	}
	op.WrongPath = r.rng.Intn(50) == 0
	if op.Inst.IsMem() {
		op.EA = program.DataBase + uint64(r.rng.Intn(64))*8
	}
	op.MispredictPoint = r.rng.Intn(30) == 0 // flagged before Insert
	tw := *op
	tw.ProdOps = [3]*Op{}
	r.twin[op] = &tw
	return op
}

// insert puts op into both back-ends.
func (r *schedRig) insert(op *Op) {
	r.b.Insert(op)
	r.ref.insert(r.twin[op])
	for i := 0; i < op.NProd; i++ {
		p := op.ProdOps[i]
		switch {
		case p.Seq != op.Producers[i]:
			r.stats[0]++ // storage now holds a newer op
		case p.inWindow:
			r.stats[1]++ // in flight
		}
	}
}

// barrier is the oldest generated seq not yet in the window.
func (r *schedRig) barrier() uint64 {
	bar := ^uint64(0)
	for _, q := range [][]*Op{r.pending[0], r.pending[1], r.kept} {
		if len(q) > 0 && q[0].Seq < bar {
			bar = q[0].Seq
		}
	}
	return bar
}

func (r *schedRig) release(op *Op) {
	delete(r.twin, op)
	r.free = append(r.free, op)
}

// squash removes every op from seq on, in and out of the window; the
// window's squashed ops are either re-inserted later (live-out recovery)
// or recycled.
func (r *schedRig) squash(seq uint64, keep bool) {
	var out []*Op
	for _, op := range r.b.order[r.b.head:] {
		if op.Seq >= seq {
			out = append(out, op)
		}
	}
	if got, want := r.b.SquashFrom(seq), r.ref.squashFrom(seq); got != want {
		r.t.Fatalf("SquashFrom(%d) removed %d ops, reference %d", seq, got, want)
	}
	for k, q := range r.pending {
		cut := len(q)
		for cut > 0 && q[cut-1].Seq >= seq {
			cut--
			r.release(q[cut])
		}
		r.pending[k] = q[:cut]
	}
	cut := len(r.kept)
	for cut > 0 && r.kept[cut-1].Seq >= seq {
		cut--
		r.release(r.kept[cut])
	}
	r.kept = r.kept[:cut]
	if keep && len(r.kept) == 0 {
		r.kept = out
		r.stats[2] += len(out)
		return
	}
	for _, op := range out {
		r.release(op)
	}
}

// cycle advances both back-ends one cycle and compares everything the
// simulator can observe.
func (r *schedRig) cycle() {
	bar := r.barrier()
	r.b.SetCommitBarrier(bar)
	r.ref.commitBarrier = bar
	n, res := r.b.Cycle(r.now)
	wantN, wantRes := r.ref.cycle(r.now)
	if n != wantN {
		r.t.Fatalf("cycle %d: committed %d, reference %d", r.now, n, wantN)
	}
	switch {
	case (res == nil) != (wantRes == nil):
		r.t.Fatalf("cycle %d: resolution %v, reference %v", r.now, res, wantRes)
	case res != nil && (res.Op.Seq != wantRes.Seq || res.Cycle != wantRes.done || r.twin[res.Op] != wantRes):
		r.t.Fatalf("cycle %d: resolved seq %d at %d, reference seq %d at %d",
			r.now, res.Op.Seq, res.Cycle, wantRes.Seq, wantRes.done)
	}
	r.compare()
	if res != nil {
		// The simulator's two outcomes: a redirect squashes everything
		// younger, a stale culprit is just cleared.
		r.stats[3]++
		if r.rng.Intn(2) == 0 {
			r.squash(res.Op.Seq+1, false)
		}
		r.b.ClearMispredictPoint(res.Op)
		wantRes.MispredictPoint = false
		r.compare()
	}
	r.now++
}

// compare checks the two windows op by op, and the counters.
func (r *schedRig) compare() {
	r.t.Helper()
	got, want := r.b.order[r.b.head:], r.ref.order
	if len(got) != len(want) {
		r.t.Fatalf("cycle %d: %d ops in flight, reference %d", r.now, len(got), len(want))
	}
	for i, op := range got {
		tw := want[i]
		if r.twin[op] != tw || op.Seq != tw.Seq || op.issued != tw.issued || op.done != tw.done ||
			op.MispredictPoint != tw.MispredictPoint || !op.inWindow {
			r.t.Fatalf("cycle %d: window slot %d: seq %d issued=%v done=%d mp=%v, reference seq %d issued=%v done=%d mp=%v",
				r.now, i, op.Seq, op.issued, op.done, op.MispredictPoint, tw.Seq, tw.issued, tw.done, tw.MispredictPoint)
		}
	}
	if r.b.committed != r.ref.committed || r.b.wrongPathExec != r.ref.wrongPathExec ||
		r.b.loadCount != r.ref.loadCount {
		r.t.Fatalf("cycle %d: counters committed/wrong/loads %d/%d/%d, reference %d/%d/%d", r.now,
			r.b.committed, r.b.wrongPathExec, r.b.loadCount, r.ref.committed, r.ref.wrongPathExec, r.ref.loadCount)
	}
	if len(r.commits) != len(r.ref.commits) {
		r.t.Fatalf("cycle %d: %d commits, reference %d", r.now, len(r.commits), len(r.ref.commits))
	}
	for i, seq := range r.commits {
		if seq != r.ref.commits[i] {
			r.t.Fatalf("cycle %d: commit %d is seq %d, reference %d", r.now, i, seq, r.ref.commits[i])
		}
	}
}

// step takes one random action.
func (r *schedRig) step() {
	inWin := r.b.order[r.b.head:]
	switch x := r.rng.Intn(100); {
	case x < 25:
		// Generate a fragment into an empty rename slot.
		for k := range r.pending {
			if len(r.pending[k]) == 0 {
				for i := r.rng.Intn(8); i >= 0; i-- {
					r.pending[k] = append(r.pending[k], r.gen())
				}
				break
			}
		}
	case x < 50:
		// Rename: insert up to 8 ops, interleaving the two fragments
		// (and any squashed ops being re-renamed) at random.
		for i := r.rng.Intn(8); i >= 0 && r.b.FreeSlots() > 0; i-- {
			qs := [][]*Op{r.pending[0], r.pending[1], r.kept}
			k := r.rng.Intn(3)
			for j := 0; j < 3 && len(qs[k]) == 0; j++ {
				k = (k + 1) % 3
			}
			if len(qs[k]) == 0 {
				break
			}
			op := qs[k][0]
			if k == 2 {
				r.kept = r.kept[1:]
				op.ResetExec()
				r.twin[op].ResetExec()
				r.stats[4]++
			} else {
				r.pending[k] = r.pending[k][1:]
			}
			r.insert(op)
		}
	case x < 85:
		r.cycle()
	case x < 90:
		// Squash from an in-flight op's seq.
		if len(inWin) > 0 {
			r.squash(inWin[r.rng.Intn(len(inWin))].Seq, r.rng.Intn(2) == 0)
		}
	case x < 96:
		// Flag an op already in the window (issued or not) as a
		// mispredict point.
		if len(inWin) > 0 {
			op := inWin[r.rng.Intn(len(inWin))]
			if op.issued {
				r.stats[5]++
			}
			op.MispredictPoint = true
			r.twin[op].MispredictPoint = true
			r.b.NoteMispredictPoint(op)
		}
	case x < 98:
		// Clear a flag that never resolved.
		for _, op := range inWin {
			if op.MispredictPoint {
				r.b.ClearMispredictPoint(op)
				r.twin[op].MispredictPoint = false
				break
			}
		}
	default:
		// A redirect skips seqs that are never inserted.
		r.next += uint64(1 + r.rng.Intn(300))
	}
	r.compare()
}

// TestSchedulerMatchesReference: the event-driven scheduler — issue queue,
// mispredict-point list, pointer-linked producers — issues, completes,
// commits and resolves exactly as the full-window scans over a seq map did.
// The op stream covers interleaved inserts from two fragments; producers that
// committed, are in flight, are not yet inserted, or whose storage now holds
// a newer op; saturated functional units; SquashFrom with and without
// ResetExec re-insert; and mispredict flags set before Insert, after Insert
// and after issue, cleared on resolution or not.
func TestSchedulerMatchesReference(t *testing.T) {
	var total [6]int
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.WindowSize, cfg.CommitWidth = 32, 4
			// Few units, so every class saturates.
			cfg.FUCounts[isa.ClassIntALU], cfg.FUCounts[isa.ClassLoadStore] = 3, 2
			cfg.FUCounts[isa.ClassIntMul], cfg.FUCounts[isa.ClassFPAdd] = 1, 1
			r := &schedRig{
				t: t, rng: rng,
				b:    New(cfg, mem.NewHierarchy(mem.DefaultHierarchyConfig()).L1D),
				ref:  newRefBackend(cfg, mem.NewHierarchy(mem.DefaultHierarchyConfig()).L1D),
				twin: map[*Op]*Op{},
				next: uint64(rng.Intn(1000)),
			}
			r.b.CommitHook = func(op *Op) {
				r.commits = append(r.commits, op.Seq)
				r.release(op)
			}
			for i := 0; i < 3000; i++ {
				r.step()
			}
			for i := range total {
				total[i] += r.stats[i]
			}
		})
	}
	t.Logf("coverage: %v", total)
	// The stream must reach every case the scheduler distinguishes.
	for i, what := range []string{
		"producers whose storage holds a newer op", "in-flight producers",
		"squashed ops kept for re-insert", "resolutions",
		"re-inserted ops", "flags set after issue",
	} {
		if total[i] < 50 {
			t.Errorf("only %d %s over all seeds", total[i], what)
		}
	}
}

// TestInsertIntoFullWindowPanics: inserting past FreeSlots is a caller bug
// Insert reports before the op reaches the window or the issue queue.
func TestInsertIntoFullWindowPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 8
	b := New(cfg, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overfilled window did not panic")
		}
		if b.InFlight() != 8 || len(b.waiting) != 8 {
			t.Errorf("panicked with %d ops in flight, %d queued; want 8 and 8",
				b.InFlight(), len(b.waiting))
		}
	}()
	for seq := uint64(0); seq < 9; seq++ {
		b.Insert(&Op{Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}})
	}
}
