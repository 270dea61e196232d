package core

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
)

func testProgram(t *testing.T) *program.Program {
	t.Helper()
	spec := program.TestSpec()
	spec.PhaseIters = 50
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestStream(t *testing.T, p *program.Program) *Stream {
	t.Helper()
	return NewStream(p, bpred.New(bpred.Config{PrimaryEntries: 4096, SecondaryEntries: 1024}), frag.DefaultHeuristics(), nil, nil)
}

// drainCorrect pulls fragments from the stream, resolving each divergence
// immediately (as if the back-end resolved the culprit instantly), and
// returns the PCs of all correct-path instructions generated.
func drainCorrect(t *testing.T, s *Stream, max int) []uint64 {
	t.Helper()
	var pcs []uint64
	for len(pcs) < max && !s.Done() {
		ff, err := s.Next()
		if errors.Is(err, ErrNoFragment) {
			if red := s.ApplyRedirect(); red == nil {
				break
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ff.WrongFrom; i++ {
			pcs = append(pcs, ff.Ops[i].PC)
		}
		if s.Pending() != nil {
			s.ApplyRedirect()
		}
	}
	return pcs
}

// TestStreamCorrectPathMatchesEmulator: the concatenation of correct-path
// prefixes must equal the functional execution stream.
func TestStreamCorrectPathMatchesEmulator(t *testing.T) {
	p := testProgram(t)
	s := newTestStream(t, p)
	got := drainCorrect(t, s, 30000)

	m := emu.New(p)
	for i, pc := range got {
		d, err := m.Step()
		if err != nil {
			t.Fatalf("oracle ended at %d: %v", i, err)
		}
		if d.PC != pc {
			t.Fatalf("instruction %d: stream %#x, oracle %#x", i, pc, d.PC)
		}
	}
}

func TestStreamSeqsAreStrictlyIncreasing(t *testing.T) {
	p := testProgram(t)
	s := newTestStream(t, p)
	var last uint64
	for i := 0; i < 2000 && !s.Done(); i++ {
		ff, err := s.Next()
		if errors.Is(err, ErrNoFragment) {
			if s.ApplyRedirect() == nil {
				break
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ff.Ops {
			if op.Seq <= last {
				t.Fatalf("seq %d after %d", op.Seq, last)
			}
			last = op.Seq
		}
		// Let some wrong path accumulate before redirecting.
		if s.Pending() != nil && i%3 == 0 {
			s.ApplyRedirect()
		}
	}
}

func TestStreamDivergenceBookkeeping(t *testing.T) {
	p := testProgram(t)
	s := newTestStream(t, p)
	for i := 0; i < 5000; i++ {
		ff, err := s.Next()
		if errors.Is(err, ErrNoFragment) {
			if s.ApplyRedirect() == nil {
				t.Fatal("stream stuck with no pending redirect")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pend := s.Pending()
		if pend == nil {
			continue
		}
		// A divergence was just detected (or is ongoing). The culprit
		// must be flagged and its seq must precede the resume point.
		if !pend.Culprit.MispredictPoint {
			t.Fatal("culprit not flagged as mispredict point")
		}
		if pend.TruePC != 0 {
			in, ok := p.InstAt(pend.TruePC)
			if !ok {
				t.Fatalf("redirect PC %#x outside code", pend.TruePC)
			}
			_ = in
		}
		// Wrong-path ops in this fragment must be marked.
		for i := ff.WrongFrom; i < len(ff.Ops); i++ {
			if !ff.Ops[i].WrongPath {
				t.Fatal("wrong-path op not marked")
			}
		}
		red := s.ApplyRedirect()
		if red != pend {
			t.Fatal("ApplyRedirect returned a different redirect")
		}
		if s.Pending() != nil {
			t.Fatal("pending redirect survived ApplyRedirect")
		}
		return // exercised one full divergence cycle
	}
	t.Fatal("no divergence observed in 5000 fragments")
}

func TestStreamEndsAfterHalt(t *testing.T) {
	spec := program.TestSpec() // tiny: runs to halt quickly
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStream(t, p)
	pcs := drainCorrect(t, s, 1<<30)
	if !s.Done() {
		t.Fatal("stream not done after drain")
	}
	if _, err := s.Next(); !errors.Is(err, ErrNoFragment) {
		t.Errorf("Next after done = %v", err)
	}
	// The last correct-path instruction must be the halt.
	last, ok := p.InstAt(pcs[len(pcs)-1])
	if !ok || last.Op != isa.OpHalt {
		t.Errorf("final instruction is %v, want halt", last.Op)
	}
}

// fakeBackend implements ExecBackend for rename-stage unit tests.
type fakeBackend struct {
	slots    int
	inserted []uint64
	squashes []uint64
}

func (f *fakeBackend) FreeSlots() int                     { return f.slots - len(f.inserted) }
func (f *fakeBackend) SetCommitBarrier(seq uint64)        {}
func (f *fakeBackend) NoteMispredictPoint(op *backend.Op) {}
func (f *fakeBackend) OldestSeq() (uint64, bool) {
	if len(f.inserted) == 0 {
		return 0, false
	}
	oldest := f.inserted[0]
	for _, s := range f.inserted[1:] {
		if s < oldest {
			oldest = s
		}
	}
	return oldest, true
}
func (f *fakeBackend) Insert(op *backend.Op) {
	f.inserted = append(f.inserted, op.Seq)
}
func (f *fakeBackend) SquashFrom(seq uint64) int {
	f.squashes = append(f.squashes, seq)
	n := 0
	kept := f.inserted[:0]
	for _, s := range f.inserted {
		if s < seq {
			kept = append(kept, s)
		} else {
			n++
		}
	}
	f.inserted = kept
	return n
}

// mkFrag builds a synthetic fragState with n single-dest ALU ops starting
// at the given seq. The fragment carries its live-outs, as one built by
// frag.FromCode does.
func mkFrag(seq uint64, n int) *fragState {
	ff := &FetchedFrag{
		Frag: &frag.Fragment{ID: frag.ID{StartPC: 0x1000 * seq}},
		Ops:  make([]*backend.Op, n),
	}
	ff.WrongFrom = n
	for i := 0; i < n; i++ {
		in := isa.Inst{Op: isa.OpAddi, Rd: isa.Reg(1 + i%8), Rs1: 1, Imm: 1}
		ff.Ops[i] = &backend.Op{Seq: seq + uint64(i), Inst: in}
		ff.Frag.Insts = append(ff.Frag.Insts, in)
		ff.Frag.PCs = append(ff.Frag.PCs, 0x1000*seq+uint64(4*i))
	}
	ff.Frag.LiveOuts = frag.LiveOutsOf(ff.Frag.Insts)
	return &fragState{ff: ff, effLen: n}
}

func TestSequentialRenameOneFragmentPerCycle(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	sr := newSequentialRename(16, be, &stats, &observer{})
	var q fragQueue
	a, b := mkFrag(1, 4), mkFrag(5, 4)
	a.markFetched(4)
	b.markFetched(4)
	q.push(a, 0)
	q.push(b, 0)

	sr.cycle(0, &q)
	if len(be.inserted) != 4 {
		t.Fatalf("cycle 0 inserted %d ops, want 4 (one fragment per cycle)", len(be.inserted))
	}
	sr.cycle(1, &q)
	if len(be.inserted) != 8 {
		t.Fatalf("cycle 1 inserted total %d, want 8", len(be.inserted))
	}
	if q.size() != 0 {
		t.Error("queue should be drained")
	}
}

func TestSequentialRenameHeadOfLineBlocking(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	sr := newSequentialRename(16, be, &stats, &observer{})
	var q fragQueue
	a, b := mkFrag(1, 4), mkFrag(5, 4)
	b.markFetched(4) // younger complete, older empty
	q.push(a, 0)
	q.push(b, 0)

	sr.cycle(0, &q)
	if len(be.inserted) != 0 {
		t.Fatal("renamed younger fragment past an unfetched older one")
	}
	a.markFetched(2)
	sr.cycle(1, &q)
	if len(be.inserted) != 2 {
		t.Fatalf("partial prefix not renamed: %d", len(be.inserted))
	}
}

func TestSequentialRenameRespectsWindowSpace(t *testing.T) {
	be := &fakeBackend{slots: 3}
	var stats Stats
	sr := newSequentialRename(16, be, &stats, &observer{})
	var q fragQueue
	a := mkFrag(1, 8)
	a.markFetched(8)
	q.push(a, 0)
	sr.cycle(0, &q)
	if len(be.inserted) != 3 {
		t.Fatalf("inserted %d, want 3 (window limit)", len(be.inserted))
	}
}

func newTestParallelRename(n, w int, be Backend, stats *Stats) *parallelRename {
	lo := rename.NewLiveOutPredictor(rename.LiveOutPredictorConfig{Entries: 256, Ways: 2})
	return newParallelRename(n, w, lo, be, stats, &observer{})
}

func TestParallelRenameConcurrentFragments(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	pr := newTestParallelRename(2, 8, be, &stats)
	var q fragQueue
	a, b := mkFrag(1, 8), mkFrag(9, 8)
	a.markFetched(8)
	b.markFetched(8)
	// Train the live-out predictor so phase 1 hits.
	pr.lo.Train(a.ff.Frag.ID, rename.ComputeLiveOuts(a.ff.Frag.Insts))
	pr.lo.Train(b.ff.Frag.ID, rename.ComputeLiveOuts(b.ff.Frag.Insts))
	q.push(a, 0)
	q.push(b, 0)

	pr.cycle(0, &q) // phase1 a; phase2 a (8 ops)
	if len(be.inserted) != 8 {
		t.Fatalf("cycle 0: %d ops", len(be.inserted))
	}
	pr.cycle(1, &q) // phase1 b; phase2 b — concurrent with nothing left of a
	if len(be.inserted) != 16 {
		t.Fatalf("cycle 1: %d ops total, want 16", len(be.inserted))
	}
}

func TestParallelRenameNotBlockedByIncompleteOldest(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	pr := newTestParallelRename(2, 8, be, &stats)
	var q fragQueue
	a, b := mkFrag(1, 8), mkFrag(9, 8)
	b.markFetched(8) // older fragment has nothing fetched yet
	pr.lo.Train(a.ff.Frag.ID, rename.ComputeLiveOuts(a.ff.Frag.Insts))
	pr.lo.Train(b.ff.Frag.ID, rename.ComputeLiveOuts(b.ff.Frag.Insts))
	q.push(a, 0)
	q.push(b, 0)

	pr.cycle(0, &q) // phase1 a (no instructions), nothing renames from a
	pr.cycle(1, &q) // phase1 b; phase2 renames b despite a being empty
	if len(be.inserted) != 8 {
		t.Fatalf("younger complete fragment blocked: %d ops", len(be.inserted))
	}
	for _, s := range be.inserted {
		if s < 9 {
			t.Fatal("unexpected op from the unfetched fragment")
		}
	}
}

func TestParallelRenameLiveOutMissSerializes(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	pr := newTestParallelRename(2, 8, be, &stats)
	var q fragQueue
	a, b := mkFrag(1, 4), mkFrag(5, 4)
	a.markFetched(4)
	b.markFetched(4)
	// No training: both fragments miss in the live-out predictor.
	q.push(a, 0)
	q.push(b, 0)

	pr.cycle(0, &q)
	// Fragment a is the oldest with renamed==0, so it serializes with
	// computed live-outs; b must NOT pass phase 1 this cycle.
	if len(be.inserted) != 4 {
		t.Fatalf("cycle 0: %d ops, want 4 (a only)", len(be.inserted))
	}
	if stats.LiveOutMisses == 0 {
		t.Error("miss not counted")
	}
	pr.cycle(1, &q)
	if len(be.inserted) != 8 {
		t.Fatalf("cycle 1: %d ops total", len(be.inserted))
	}
}

func TestParallelRenameMispredictSquash(t *testing.T) {
	be := &fakeBackend{slots: 256}
	var stats Stats
	pr := newTestParallelRename(2, 8, be, &stats)
	var q fragQueue
	a, b := mkFrag(1, 4), mkFrag(5, 4)
	a.markFetched(4)
	b.markFetched(4)
	// Train a's entry with WRONG live-outs (missing registers) so
	// phase 2 detects condition 1.
	pr.lo.Train(a.ff.Frag.ID, rename.LiveOuts{})
	pr.lo.Train(b.ff.Frag.ID, rename.ComputeLiveOuts(b.ff.Frag.Insts))
	q.push(a, 0)
	q.push(b, 0)

	pr.cycle(0, &q)
	pr.cycle(1, &q)
	pr.cycle(2, &q)
	if stats.LiveOutMispredict == 0 {
		t.Fatal("injected live-out misprediction not detected")
	}
	if seq, ok := pr.takeSquash(); !ok || seq != 5 {
		t.Fatalf("squash request = %d,%v, want seq 5", seq, ok)
	}
	// b must have been reset for re-rename.
	if b.renamed != 0 || b.phase1Done {
		t.Error("younger fragment not reset after live-out squash")
	}
}

func TestFragQueueAccounting(t *testing.T) {
	var q fragQueue
	a, b := mkFrag(1, 4), mkFrag(5, 6)
	q.push(a, 0)
	q.push(b, 0)
	if q.unrenamedOps() != 10 {
		t.Errorf("unrenamed = %d", q.unrenamedOps())
	}
	a.renamed = 4
	q.removeRenamed()
	if q.size() != 1 || q.at(0) != b {
		t.Error("removeRenamed misbehaved")
	}
	popped := q.drainPopped()
	if len(popped) != 1 || popped[0] != a {
		t.Error("popped accounting lost a fragment")
	}
	if len(q.drainPopped()) != 0 {
		t.Error("drainPopped must clear")
	}
	if seq, ok := q.oldestUnrenamedSeq(); !ok || seq != 5 {
		t.Errorf("oldest unrenamed = %d,%v", seq, ok)
	}
}
