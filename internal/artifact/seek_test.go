package artifact

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/program"
)

// seekAndCompare positions one reader via Seek(at) and another by reading a
// fresh reader from zero one instruction at a time, then reads both in
// lockstep, one instruction at a time, for n instructions.
// This is the contract every sampling window relies on:
// a seek is indistinguishable from a from-zero replay advanced to the same
// sequence index.
func seekAndCompare(t *testing.T, tape *Tape, at, n uint64) {
	t.Helper()
	sought := tape.NewReader()
	if err := sought.Seek(at); err != nil {
		t.Fatalf("Seek(%d): %v", at, err)
	}
	if got := sought.Pos(); got != at && at < tape.Len() {
		t.Fatalf("Seek(%d): Pos() = %d", at, got)
	}
	walked := walkTo(t, tape, at)
	for i := uint64(0); i < n; i++ {
		if walked.Halted() != sought.Halted() {
			t.Fatalf("seek %d + %d: halted walked=%v sought=%v", at, i, walked.Halted(), sought.Halted())
		}
		if walked.Halted() {
			break
		}
		if walked.Pos() != sought.Pos() {
			t.Fatalf("seek %d + %d: walked at %d, sought at %d", at, i, walked.Pos(), sought.Pos())
		}
		want, wantEA, werr := readOne(walked)
		got, gotEA, gerr := readOne(sought)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("seek %d + %d: err walked=%v sought=%v", at, i, werr, gerr)
		}
		if werr != nil {
			break
		}
		if got != want || gotEA != wantEA {
			t.Fatalf("seek %d + %d: diverged:\n walked %+v ea %#x\n sought %+v ea %#x",
				at, i, want, wantEA, got, gotEA)
		}
	}
}

// walkTo returns a fresh reader of tape advanced from zero to sequence index
// at (or to the halt) one instruction at a time.
func walkTo(t *testing.T, tape *Tape, at uint64) *Reader {
	t.Helper()
	r := tape.NewReader()
	for r.Pos() < at && !r.Halted() {
		if _, _, err := readOne(r); err != nil {
			t.Fatalf("walk to %d: %v", at, err)
		}
	}
	return r
}

// TestTapeSeekBitIdentical seeks to positions straddling every interesting
// boundary — block starts, mid-block, the recorded end, past the end — on a
// truncated recording of each suite benchmark, and requires the sought
// reader to produce the identical stream a from-zero walk produces.
func TestTapeSeekBitIdentical(t *testing.T) {
	for _, name := range program.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := program.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := program.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			const budget = 3 * IndexStride
			tape, err := Record(p, budget)
			if err != nil {
				t.Fatal(err)
			}
			targets := []uint64{
				0, 1, 17,
				IndexStride - 1, IndexStride, IndexStride + 1,
				2*IndexStride + 100,
				tape.Len() - 1, tape.Len(), // last recorded inst; live fallback
				tape.Len() + 500, // deep into the fallback region
			}
			for _, at := range targets {
				seekAndCompare(t, tape, at, 600)
			}
		})
	}
}

// TestTapeSeekHalted covers seeks on a recording that reached OpHalt: in-tape
// positions replay exactly, and seeks at or past the end land the reader in
// the halted end-of-stream state instead of engaging the live fallback.
func TestTapeSeekHalted(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tape.Halted() {
		t.Fatalf("test spec should halt within the budget (recorded %d)", tape.Len())
	}
	seekAndCompare(t, tape, 0, tape.Len()+10)
	seekAndCompare(t, tape, tape.Len()/2, tape.Len())
	seekAndCompare(t, tape, tape.Len()-1, 10)
	for _, at := range []uint64{tape.Len(), tape.Len() + 99} {
		r := tape.NewReader()
		if err := r.Seek(at); err != nil {
			t.Fatalf("Seek(%d) on halted tape: %v", at, err)
		}
		if !r.Halted() {
			t.Fatalf("Seek(%d) on halted tape: not halted", at)
		}
	}
	if got := tape.FallbackSteps(); got != 0 {
		t.Fatalf("halted-tape seeks used the live fallback: %d steps", got)
	}
}

// TestTapeSeekBackward rewinds a reader that has already advanced and checks
// the rebuilt cursor replays the earlier region identically, so a reader
// can be reused across non-monotonic positions.
func TestTapeSeekBackward(t *testing.T) {
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
	r := tape.NewReader()
	if err := r.Seek(IndexStride + 700); err != nil {
		t.Fatal(err)
	}
	var first [50]emu.Dyn
	var firstEA [50]uint64
	if n, err := r.ReadBlock(first[:], firstEA[:]); n != len(first) || err != nil {
		t.Fatalf("ReadBlock: %d, %v", n, err)
	}
	if err := r.Seek(IndexStride + 700); err != nil {
		t.Fatalf("backward Seek: %v", err)
	}
	for i := range first {
		d, ea, err := readOne(r)
		if err != nil {
			t.Fatal(err)
		}
		if d != first[i] || ea != firstEA[i] {
			t.Fatalf("replay after backward seek diverged at +%d:\n first  %+v ea %#x\n second %+v ea %#x",
				i, first[i], firstEA[i], d, ea)
		}
	}
}

// TestTapeSeekAllocs is the steady-state allocation guard for the seek +
// fast-forward path: positioning a reader anywhere inside the recording and
// reading on, one instruction at a time and then in a block, must not
// allocate.
func TestTapeSeekAllocs(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 4*IndexStride)
	if err != nil {
		t.Fatal(err)
	}
	r := tape.NewReader()
	targets := []uint64{IndexStride / 2, 3*IndexStride + 1000, 100, 2 * IndexStride}
	var dyn [200]emu.Dyn
	var ea [200]uint64
	allocs := testing.AllocsPerRun(20, func() {
		for _, at := range targets {
			if err := r.Seek(at); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := r.ReadBlock(dyn[:1], ea[:1]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.ReadBlock(dyn[:], ea[:]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("in-tape seek + fast-forward allocates %.1f objects/run, want 0", allocs)
	}
}

// FuzzTapeSeekReplay feeds random seek offsets (including past-the-end and
// backward positions) into a truncated recording and a halted one, and
// requires the sought reader to replay bit-identically to a from-zero
// replay advanced to the same instruction index — one instruction at a
// time, in blocks of random sizes, and a run at a time under random limits
// (ReadRun against ReadBlock), and in both of the latter the instructions
// past a truncated recording's end count as fallback steps.
func FuzzTapeSeekReplay(f *testing.F) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		f.Fatal(err)
	}
	tape, err := Record(p, 2*IndexStride+137)
	if err != nil {
		f.Fatal(err)
	}
	hp, err := program.Build(program.TestSpec())
	if err != nil {
		f.Fatal(err)
	}
	halted, err := Record(hp, 1_000_000)
	if err != nil {
		f.Fatal(err)
	}
	if !halted.Halted() {
		f.Fatalf("test spec should halt within the budget (recorded %d)", halted.Len())
	}
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(IndexStride), uint64(IndexStride-1))
	f.Add(tape.Len()-1, tape.Len()+50)
	f.Add(uint64(123456789), uint64(42))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		rng := rand.New(rand.NewSource(int64(a*31 + b)))
		// Bound fallback fast-forwards so a huge random offset doesn't
		// emulate for minutes; in-tape offsets are used as-is. The halted
		// recording's span reaches just past its halt.
		for _, c := range []struct {
			tape *Tape
			span uint64
		}{{tape, 4 * IndexStride}, {halted, halted.Len() + 64}} {
			r := c.tape.NewReader()
			for _, at := range []uint64{a % c.span, b % c.span} { // second seek exercises reuse + backward
				if err := r.Seek(at); err != nil {
					t.Fatalf("Seek(%d): %v", at, err)
				}
				ref := walkTo(t, c.tape, at)
				for i := 0; i < 64; i++ {
					if r.Halted() != ref.Halted() {
						t.Fatalf("seek %d + %d: halted sought=%v walked=%v", at, i, r.Halted(), ref.Halted())
					}
					if r.Halted() {
						break
					}
					if r.Pos() != ref.Pos() {
						t.Fatalf("seek %d + %d: sought at %d, walked at %d", at, i, r.Pos(), ref.Pos())
					}
					got, gotEA, gerr := readOne(r)
					want, wantEA, werr := readOne(ref)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("seek %d + %d: err sought=%v walked=%v", at, i, gerr, werr)
					}
					if werr != nil {
						break
					}
					if got != want || gotEA != wantEA {
						t.Fatalf("seek %d + %d: diverged:\n walked %+v ea %#x\n sought %+v ea %#x",
							at, i, want, wantEA, got, gotEA)
					}
				}

				rb := c.tape.NewReader()
				if err := rb.Seek(at); err != nil {
					t.Fatalf("Seek(%d): %v", at, err)
				}
				rr := c.tape.NewReader()
				if err := rr.Seek(at); err != nil {
					t.Fatalf("Seek(%d): %v", at, err)
				}
				for _, d := range []struct {
					what string
					r    *Reader
					n    uint64
				}{
					{"block", rb, drainBlocks(t, "block", walkTo(t, c.tape, at), rb, at, 1+uint64(rng.Intn(700)), rng)},
					{"run", rr, drainRuns(t, "run", c.tape, walkTo(t, c.tape, at), rr, at, 1+uint64(rng.Intn(700)), rng)},
				} {
					var past int64
					for i := uint64(0); i < d.n; i++ {
						if at+i >= c.tape.Len() {
							past++
						}
					}
					if got := d.r.FallbackSteps(); got != past {
						t.Fatalf("seek %d: %s reader FallbackSteps = %d, want %d", at, d.what, got, past)
					}
				}
			}
		}
	})
}
