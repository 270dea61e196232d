package artifact

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// drainRuns reads up to n instructions from r with ReadRun, under random
// limits, and checks every instruction of every run against want, read one
// instruction at a time with ReadBlock from the same position: PC,
// instruction, direction, and for a memory operation its effective address
// and kind. A run must end at a control transfer unless its limit or the
// recording's end cut it. It returns how many instructions it read.
func drainRuns(t *testing.T, name string, tape *Tape, want emu.Oracle, r *Reader, at, n uint64, rng *rand.Rand) uint64 {
	t.Helper()
	var run frag.Run
	var refs [300]MemRef
	var i uint64
	for i < n {
		limit := min(1+rng.Intn(len(refs)), int(n-i))
		k, err := r.ReadRun(&run, limit, refs[:])
		if errors.Is(err, emu.ErrHalted) && want.Halted() {
			return i
		}
		if err != nil {
			t.Fatalf("%s: ReadRun at +%d: %v", name, i, err)
		}
		seq := at + i
		if run.Len < 1 || run.Len > limit {
			t.Fatalf("%s: seq %d: run of %d instructions under limit %d", name, seq, run.Len, limit)
		}
		if !run.Last.ChangesFlow() && run.Len < limit && seq+uint64(run.Len) != tape.Len() && seq < tape.Len() {
			t.Fatalf("%s: seq %d: run of %d ends at %v, not a control transfer", name, seq, run.Len, run.Last)
		}
		mem := refs[:k]
		for j := range run.Len {
			w, wea, werr := readOne(want)
			if werr != nil {
				t.Fatalf("%s: reference at seq %d: %v", name, seq+uint64(j), werr)
			}
			last := j == run.Len-1
			switch {
			case w.PC != run.PC+uint64(j)*isa.InstBytes:
				t.Fatalf("%s: seq %d: PC %#x, run holds %#x", name, seq+uint64(j), w.PC, run.PC+uint64(j)*isa.InstBytes)
			case last && (w.Inst != run.Last || w.Taken != run.Taken):
				t.Fatalf("%s: seq %d: last %v taken %v, reference %v taken %v", name, seq+uint64(j), run.Last, run.Taken, w.Inst, w.Taken)
			case !last && w.Inst.ChangesFlow():
				t.Fatalf("%s: seq %d: the run goes on past %v", name, seq+uint64(j), w.Inst)
			}
			if w.Inst.IsMem() {
				if len(mem) == 0 || mem[0] != (MemRef{PC: w.PC, EA: wea, Store: w.Inst.IsStore()}) {
					t.Fatalf("%s: seq %d: memory refs %+v, reference %#x ea %#x", name, seq+uint64(j), mem, w.PC, wea)
				}
				mem = mem[1:]
			}
		}
		if len(mem) != 0 {
			t.Fatalf("%s: seq %d: %d memory refs left over", name, seq, len(mem))
		}
		i += uint64(run.Len)
		if r.Pos() != at+i || r.Halted() != want.Halted() {
			t.Fatalf("%s: Pos() = %d (halted %v) after seq %d, reference halted %v", name, r.Pos(), r.Halted(), at+i-1, want.Halted())
		}
	}
	return i
}

// TestTapeRunTableShared reads one tape with ReadRun from several readers
// at once, each in a parallel subtest, as the cells that share a tape do;
// under -race it checks that readers only read the run table.
func TestTapeRunTableShared(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 3*IndexStride)
	if err != nil {
		t.Fatal(err)
	}
	for g := range 4 {
		t.Run(fmt.Sprintf("reader%d", g), func(t *testing.T) {
			t.Parallel()
			at := uint64(g * 1000)
			r := tape.NewReader()
			if err := r.Seek(at); err != nil {
				t.Fatal(err)
			}
			drainRuns(t, t.Name(), tape, walkTo(t, tape, at), r, at, 4000, rand.New(rand.NewSource(int64(g))))
		})
	}
}

// BenchmarkTapeReplay times the two ways of reading a tape, in ns per
// replayed instruction, over a 1M-instruction gcc recording: ReadBlock in
// reads of 11 instructions (the fetch stream's typical refill) and of 256
// (a long block), and ReadRun, a straight-line run at a time, as warming
// reads it.
func BenchmarkTapeReplay(b *testing.B) {
	const insts = 1_000_000
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	tape, err := Record(p, insts)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{11, 256} {
		b.Run(fmt.Sprintf("block=%d", k), func(b *testing.B) {
			dyn := make([]emu.Dyn, k)
			ea := make([]uint64, k)
			for range b.N {
				r := tape.NewReader()
				for r.Pos() < insts {
					if _, err := r.ReadBlock(dyn[:min(k, int(insts-r.Pos()))], ea); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/insts, "ns/inst")
		})
	}
	b.Run("run", func(b *testing.B) {
		var run frag.Run
		var refs [256]MemRef
		for range b.N {
			r := tape.NewReader()
			for r.Pos() < insts {
				if _, err := r.ReadRun(&run, min(len(refs), int(insts-r.Pos())), refs[:]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/insts, "ns/inst")
	})
}

// TestReadRunErrors checks that ReadRun fails where ReadBlock fails, with
// the same error: at a PC outside the code image (below it, unaligned, past
// its end), and on a recording whose varint stream is cut short, at the
// memory operation or indirect jump whose varint is missing.
func TestReadRunErrors(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 2*IndexStride)
	if err != nil {
		t.Fatal(err)
	}
	var run frag.Run
	var refs [64]MemRef
	var dyn [1]emu.Dyn
	var ea [1]uint64
	end := program.CodeBase + uint64(len(p.Code))*isa.InstBytes
	for _, pc := range []uint64{0x10, program.CodeBase + 2, end} {
		rb, rr := tape.NewReader(), tape.NewReader()
		rb.pc, rr.pc = pc, pc
		_, berr := rb.ReadBlock(dyn[:], ea[:])
		_, rerr := rr.ReadRun(&run, len(refs), refs[:])
		if berr == nil || rerr == nil || berr.Error() != rerr.Error() {
			t.Fatalf("PC %#x: ReadBlock error %v, ReadRun error %v", pc, berr, rerr)
		}
	}
	for _, cut := range []int{len(tape.aux) / 3, len(tape.aux) / 2, len(tape.aux) - 1} {
		short := &Tape{prog: p, startPC: tape.startPC, count: tape.count, taken: tape.taken,
			aux: tape.aux[:cut], index: tape.index, runs: tape.runs}
		rb, rr := short.NewReader(), short.NewReader()
		var berr, rerr error
		for berr == nil {
			_, berr = rb.ReadBlock(dyn[:], ea[:])
		}
		for rerr == nil {
			_, rerr = rr.ReadRun(&run, len(refs), refs[:])
		}
		if berr.Error() != rerr.Error() {
			t.Fatalf("aux cut to %d bytes: ReadBlock error %v, ReadRun error %v", cut, berr, rerr)
		}
	}
}
