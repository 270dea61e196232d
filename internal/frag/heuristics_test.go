package frag

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

func TestHeuristicsNormalize(t *testing.T) {
	h := Heuristics{}.Normalize()
	if h != DefaultHeuristics() {
		t.Errorf("zero value normalized to %+v", h)
	}
	h = Heuristics{MaxLen: 100, BranchCutoff: 50}.Normalize()
	if h.MaxLen != 32 {
		t.Errorf("MaxLen not capped: %d", h.MaxLen)
	}
}

func TestLongFragmentsSplit(t *testing.T) {
	h := Heuristics{MaxLen: 32, BranchCutoff: 16}
	n, _ := h.Split(straight(0x1000, 64))
	if n != 32 {
		t.Errorf("straight-line length %d, want 32", n)
	}
	// A branch at position 12 continues under cutoff 16 but stops under
	// the default cutoff 8.
	ds := straight(0x1000, 11)
	ds = append(ds, Dyn{PC: 0x102c, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 4}, Taken: false})
	ds = append(ds, straight(0x1030, 40)...)
	if n, _ := h.Split(ds); n != 32 {
		t.Errorf("cutoff-16 split = %d, want 32", n)
	}
	if n, _ := Split(ds); n != 12 {
		t.Errorf("default split = %d, want 12", n)
	}
}

// TestHeuristicsFromCodeMatchesSplit extends the core speculative-fetch
// equivalence property to non-default heuristics: for any heuristics, the
// ID produced by Split must reconstruct the same instructions via FromCode.
func TestHeuristicsFromCodeMatchesSplit(t *testing.T) {
	spec := program.TestSpec()
	spec.PhaseIters = 40 // enough dynamic length for 400 long fragments
	p := program.MustBuild(spec)
	for _, h := range []Heuristics{
		{MaxLen: 16, BranchCutoff: 8},
		{MaxLen: 24, BranchCutoff: 12},
		{MaxLen: 32, BranchCutoff: 16},
		{MaxLen: 8, BranchCutoff: 4},
	} {
		m := emu.New(p)
		var stream []Dyn
		frags := 0
		for frags < 400 {
			for len(stream) < 2*h.MaxLen && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					break
				}
				stream = append(stream, Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
			}
			if len(stream) == 0 {
				break
			}
			n, id := h.Split(stream)
			f := h.FromCode(p, id)
			if f.Len() != n {
				t.Fatalf("h=%+v frag %d: FromCode %d vs Split %d", h, frags, f.Len(), n)
			}
			for i := 0; i < n; i++ {
				if f.PCs[i] != stream[i].PC {
					t.Fatalf("h=%+v frag %d idx %d: %#x vs %#x", h, frags, i, f.PCs[i], stream[i].PC)
				}
			}
			stream = stream[n:]
			frags++
		}
		if frags < 100 {
			t.Fatalf("h=%+v: only %d fragments", h, frags)
		}
	}
}

func TestLongerHeuristicsYieldLongerFragments(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	avg := func(h Heuristics) float64 {
		m := emu.New(p)
		var stream []Dyn
		total, frags := 0, 0
		for total < 20000 {
			for len(stream) < 2*h.MaxLen && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					break
				}
				stream = append(stream, Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
			}
			if len(stream) == 0 {
				break
			}
			n, _ := h.Split(stream)
			stream = stream[n:]
			total += n
			frags++
		}
		return float64(total) / float64(frags)
	}
	short := avg(Heuristics{MaxLen: 16, BranchCutoff: 8})
	long := avg(Heuristics{MaxLen: 32, BranchCutoff: 16})
	t.Logf("avg fragment: 16/8 -> %.2f, 32/16 -> %.2f", short, long)
	if long <= short {
		t.Errorf("longer heuristics did not lengthen fragments: %.2f vs %.2f", short, long)
	}
}

func TestIDKeyDistinguishesWideMasks(t *testing.T) {
	a := ID{StartPC: 0x1000, BrMask: 1 << 16, NumBr: 17}
	b := ID{StartPC: 0x1000, BrMask: 1 << 15, NumBr: 17}
	if a.Key() == b.Key() {
		t.Error("keys collide for wide direction masks")
	}
}
