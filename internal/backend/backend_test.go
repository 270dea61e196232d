package backend

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
)

func newTestBackend() *Backend {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	return New(DefaultConfig(), h.L1D)
}

func alu(seq uint64, producers ...uint64) *Op {
	op := &Op{Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}}
	copy(op.Producers[:], producers)
	op.NProd = len(producers)
	return op
}

// run advances the backend until idle or limit, returning the cycle at
// which everything committed.
func run(t *testing.T, b *Backend, limit uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < limit; now++ {
		b.Cycle(now)
		if b.InFlight() == 0 {
			return now
		}
	}
	t.Fatalf("backend did not drain in %d cycles", limit)
	return 0
}

func TestIndependentOpsIssueTogether(t *testing.T) {
	b := newTestBackend()
	for i := 0; i < 16; i++ {
		b.Insert(alu(uint64(i)))
	}
	// All 16 fit the 16 integer ALUs: issue at cycle 0 (done at 1),
	// commit at cycle 1.
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 16 {
		t.Errorf("committed %d at cycle 1, want 16", n)
	}
}

func TestFUContention(t *testing.T) {
	b := newTestBackend()
	// 5 independent multiplies, but only 4 multipliers.
	for i := 0; i < 5; i++ {
		b.Insert(&Op{Seq: uint64(i), Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}})
	}
	b.Cycle(0) // 4 issue
	issued := 0
	for _, seq := range []uint64{0, 1, 2, 3, 4} {
		if op := b.window.get(seq); op != nil && op.Issued() {
			issued++
		}
	}
	if issued != 4 {
		t.Errorf("%d multiplies issued in cycle 0, want 4", issued)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	b := newTestBackend()
	// Chain of 5 dependent single-cycle ALU ops: completion at cycles
	// 1,2,3,4,5 -> all committed by cycle 5.
	for i := uint64(0); i < 5; i++ {
		if i == 0 {
			b.Insert(alu(i))
		} else {
			b.Insert(alu(i, i-1))
		}
	}
	end := run(t, b, 100)
	if end != 5 {
		t.Errorf("chain drained at cycle %d, want 5", end)
	}
}

func TestCommitIsInOrder(t *testing.T) {
	b := newTestBackend()
	// Op 0 is a slow multiply (3 cycles); ops 1..5 are fast but must
	// wait for op 0 to commit first.
	b.Insert(&Op{Seq: 0, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}})
	for i := uint64(1); i <= 5; i++ {
		b.Insert(alu(i))
	}
	var commits []int
	for now := uint64(0); now <= 4; now++ {
		n, _ := b.Cycle(now)
		commits = append(commits, n)
	}
	// Nothing commits until the multiply completes at cycle 3.
	if commits[0] != 0 || commits[1] != 0 || commits[2] != 0 {
		t.Errorf("early commits: %v", commits)
	}
	if commits[3] != 6 {
		t.Errorf("cycle 3 committed %d, want all 6", commits[3])
	}
}

func TestLoadGoesThroughDCache(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	b := New(DefaultConfig(), h.L1D)
	ld := &Op{Seq: 0, Inst: isa.Inst{Op: isa.OpLw, Rd: 1, Rs1: 2}, EA: program.DataBase}
	b.Insert(ld)
	b.Cycle(0)
	// Cold load: L1 miss -> L2 miss -> memory: 1+10+100 = 111.
	if ld.Done() != 111 {
		t.Errorf("cold load done at %d, want 111", ld.Done())
	}
	// A second load to the same block hits L1.
	ld2 := &Op{Seq: 1, Inst: isa.Inst{Op: isa.OpLw, Rd: 1, Rs1: 2}, EA: program.DataBase + 8}
	b.Insert(ld2)
	b.Cycle(200)
	if ld2.Done() != 201 {
		t.Errorf("warm load done at %d, want 201", ld2.Done())
	}
}

func TestWrongPathOpsDoNotCommit(t *testing.T) {
	b := newTestBackend()
	b.Insert(alu(0))
	wp := alu(1)
	wp.WrongPath = true
	b.Insert(wp)
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 1 {
		t.Errorf("committed %d, want 1 (wrong-path op must block, not commit)", n)
	}
	if b.InFlight() != 1 {
		t.Errorf("in flight %d, want the wrong-path op", b.InFlight())
	}
	b.SquashFrom(1)
	if b.InFlight() != 0 {
		t.Error("squash did not remove wrong-path op")
	}
}

func TestMispredictPointResolution(t *testing.T) {
	b := newTestBackend()
	br := &Op{Seq: 0, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2}, MispredictPoint: true}
	b.Insert(br)
	wp := alu(1)
	wp.WrongPath = true
	b.Insert(wp)

	_, res := b.Cycle(0) // issues, completes at cycle 1
	if res != nil {
		t.Fatal("resolution before completion")
	}
	n, res := b.Cycle(1)
	if res == nil || res.Op != br || res.Cycle != 1 {
		t.Fatalf("resolution = %+v", res)
	}
	if n != 0 {
		t.Errorf("mispredict point committed before being cleared (%d)", n)
	}
	// Simulator handles the redirect: squash younger, clear the point.
	b.SquashFrom(1)
	b.ClearMispredictPoint(br)
	n, _ = b.Cycle(2)
	if n != 1 {
		t.Errorf("cleared branch did not commit: %d", n)
	}
}

func TestSquashFromKeepsOlder(t *testing.T) {
	b := newTestBackend()
	for i := uint64(0); i < 10; i++ {
		b.Insert(alu(i))
	}
	if got := b.SquashFrom(4); got != 6 {
		t.Errorf("squashed %d, want 6", got)
	}
	if b.InFlight() != 4 {
		t.Errorf("in flight %d, want 4", b.InFlight())
	}
	if seq, ok := b.OldestSeq(); !ok || seq != 0 {
		t.Errorf("oldest = %d,%v", seq, ok)
	}
}

func TestOutOfOrderInsertKeepsSeqOrder(t *testing.T) {
	b := newTestBackend()
	// Parallel rename inserts fragment i+1's ops before fragment i's
	// stragglers; commit order must still be seq order.
	b.Insert(alu(2))
	b.Insert(alu(0))
	b.Insert(alu(1))
	if b.order[0].Seq != 0 || b.order[1].Seq != 1 || b.order[2].Seq != 2 {
		t.Fatalf("window order: %d %d %d", b.order[0].Seq, b.order[1].Seq, b.order[2].Seq)
	}
}

func TestWindowCapacity(t *testing.T) {
	b := newTestBackend()
	if b.FreeSlots() != 256 {
		t.Fatalf("free slots %d", b.FreeSlots())
	}
	// Fill with a dependence chain so nothing commits quickly.
	for i := uint64(0); i < 256; i++ {
		var op *Op
		if i == 0 {
			op = &Op{Seq: i, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
		} else {
			op = &Op{Seq: i, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
			op.Producers[0] = i - 1
			op.NProd = 1
		}
		b.Insert(op)
	}
	if b.FreeSlots() != 0 {
		t.Errorf("free slots %d after filling", b.FreeSlots())
	}
}
