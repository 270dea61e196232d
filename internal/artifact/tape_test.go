package artifact

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

// drainBoth steps a live machine and a tape reader in lockstep for up to n
// instructions, failing on the first divergence. Returns how many
// instructions both produced.
func drainBoth(t *testing.T, name string, live, replay emu.Oracle, n uint64) uint64 {
	t.Helper()
	var i uint64
	for ; i < n; i++ {
		if live.Halted() != replay.Halted() {
			t.Fatalf("%s: seq %d: halted live=%v replay=%v", name, i, live.Halted(), replay.Halted())
		}
		if live.Halted() {
			break
		}
		want, werr := live.Step()
		got, gerr := replay.Step()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: seq %d: err live=%v replay=%v", name, i, werr, gerr)
		}
		if werr != nil {
			break
		}
		if got != want {
			t.Fatalf("%s: seq %d: replay diverged:\n live  %+v\n replay %+v", name, i, want, got)
		}
	}
	return i
}

// drainBlocks reads up to n instructions from r through ReadBlock, in
// blocks of random sizes, and requires each one's PC, instruction,
// direction and effective address to match want's next Step. A block may
// come back short only at a halt, which both streams must reach together.
// Returns how many instructions r produced.
func drainBlocks(t *testing.T, name string, want emu.Oracle, r *Reader, n uint64, rng *rand.Rand) uint64 {
	t.Helper()
	var dyn [300]frag.Dyn
	var ea [300]uint64
	var i uint64
	for i < n {
		k := 1 + rng.Intn(len(dyn))
		if rest := n - i; uint64(k) > rest {
			k = int(rest)
		}
		got, err := r.ReadBlock(dyn[:k], ea[:k])
		if errors.Is(err, emu.ErrHalted) && got == 0 && want.Halted() {
			return i
		}
		if err != nil {
			t.Fatalf("%s: ReadBlock at +%d: %v", name, i, err)
		}
		for j := 0; j < got; j++ {
			w, werr := want.Step()
			if werr != nil {
				t.Fatalf("%s: reference at +%d: %v", name, i+uint64(j), werr)
			}
			if d := (frag.Dyn{PC: w.PC, Inst: w.Inst, Taken: w.Taken}); dyn[j] != d || ea[j] != w.EA {
				t.Fatalf("%s: seq %d: block decode diverged:\n want %+v ea %#x\n got  %+v ea %#x",
					name, w.Seq, d, w.EA, dyn[j], ea[j])
			}
			if j == got-1 && r.Pos() != w.Seq+1 {
				t.Fatalf("%s: Pos() = %d after seq %d", name, r.Pos(), w.Seq)
			}
		}
		i += uint64(got)
		if got < k {
			if !r.Halted() || !want.Halted() {
				t.Fatalf("%s: short block (%d of %d) at +%d: halted reader=%v reference=%v",
					name, got, k, i, r.Halted(), want.Halted())
			}
			return i
		}
	}
	return i
}

// TestTapeReplayBitIdentical replays every suite benchmark against the live
// emulator and requires the identical DynInst stream, including the region
// past the recorded end (the live-fallback path) and post-halt behaviour.
// The block decoder must produce the same stream from the start, after a
// Seek, and through the fallback, whose instructions it counts; on the
// halting program it must stop at the halt.
func TestTapeReplayBitIdentical(t *testing.T) {
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
			const budget = 20_000
			tape, err := Record(p, budget)
			if err != nil {
				t.Fatal(err)
			}
			// Drain past the tape's end so the fallback region is compared
			// too.
			drainBoth(t, name, emu.New(p), tape.NewReader(), budget+5_000)

			rng := rand.New(rand.NewSource(int64(len(name))))
			rb := tape.NewReader()
			if n := drainBlocks(t, name, emu.New(p), rb, budget+5_000, rng); n != budget+5_000 {
				t.Fatalf("block reader produced %d instructions, want %d", n, budget+5_000)
			}
			if got := rb.FallbackSteps(); got != 5_000 {
				t.Fatalf("block reader FallbackSteps = %d, want 5000", got)
			}

			const at = IndexStride + 123
			sought, live := tape.NewReader(), emu.New(p)
			if err := sought.Seek(at); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Run(at); err != nil {
				t.Fatal(err)
			}
			drainBlocks(t, name+"-seek", live, sought, 3_000, rng)
		})
	}
	t.Run("halt", func(t *testing.T) {
		p, err := program.Build(program.TestSpec())
		if err != nil {
			t.Fatal(err)
		}
		tape, err := Record(p, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		rb := tape.NewReader()
		rng := rand.New(rand.NewSource(1))
		if n := drainBlocks(t, "testspec", emu.New(p), rb, 1_000_000, rng); n != tape.Len() {
			t.Fatalf("block reader produced %d instructions, tape recorded %d", n, tape.Len())
		}
		var dyn [4]frag.Dyn
		var ea [4]uint64
		if n, err := rb.ReadBlock(dyn[:], ea[:]); n != 0 || !errors.Is(err, emu.ErrHalted) {
			t.Fatalf("ReadBlock after halt: %d, %v; want 0, ErrHalted", n, err)
		}
		if got := tape.FallbackSteps(); got != 0 {
			t.Fatalf("halting block replay used the fallback: %d steps", got)
		}
	})
}

// TestTapeReplayHalt runs the halting miniature benchmark to completion on
// both paths: same stream, same halt point, same post-halt errors.
func TestTapeReplayHalt(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tape.Halted() {
		t.Fatalf("test spec should halt within the recording budget (recorded %d)", tape.Len())
	}
	live, replay := emu.New(p), tape.NewReader()
	n := drainBoth(t, "testspec", live, replay, 2_000_000)
	if n != tape.Len() {
		t.Fatalf("replayed %d instructions, tape recorded %d", n, tape.Len())
	}
	if !replay.Halted() || !live.Halted() {
		t.Fatalf("halted: live=%v replay=%v", live.Halted(), replay.Halted())
	}
	if _, err := replay.Step(); !errors.Is(err, emu.ErrHalted) {
		t.Fatalf("Step after halt: got %v, want ErrHalted", err)
	}
	if tape.FallbackSteps() != 0 {
		t.Fatalf("halting replay used the fallback: %d steps", tape.FallbackSteps())
	}
}

// TestTapeFallbackCounts verifies that reading past a truncated recording
// both stays bit-identical (covered above) and is visible in the fallback
// counter.
func TestTapeFallbackCounts(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	n := drainBoth(t, "gcc-truncated", emu.New(p), tape.NewReader(), 3_000)
	if n != 3_000 {
		t.Fatalf("drained %d instructions, want 3000", n)
	}
	if got := tape.FallbackSteps(); got != 2_000 {
		t.Fatalf("FallbackSteps = %d, want 2000", got)
	}
}

// TestTapeCompactness pins the point of the delta encoding: the tape must
// stay well under a byte per recorded instruction (a raw DynInst is 48).
func TestTapeCompactness(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50_000
	tape, err := Record(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(tape.Bytes()) / float64(tape.Len())
	if perInst >= 1.5 {
		t.Fatalf("tape costs %.2f bytes/instruction (%d bytes for %d insts); encoding regressed",
			perInst, tape.Bytes(), tape.Len())
	}
	t.Logf("tape: %d insts in %d bytes (%.3f bytes/inst)", tape.Len(), tape.Bytes(), perInst)
}

// TestTapeReplayAllocsLessThanLive is the steady-state allocation guard:
// serving a cell's oracle from a shared tape must allocate less than live
// emulation, which pays for a fresh data segment and stack every run.
func TestTapeReplayAllocsLessThanLive(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5_000
	tape, err := Record(p, steps)
	if err != nil {
		t.Fatal(err)
	}
	replayAllocs := testing.AllocsPerRun(10, func() {
		r := tape.NewReader()
		for i := 0; i < steps; i++ {
			if _, err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	liveAllocs := testing.AllocsPerRun(10, func() {
		m := emu.New(p)
		for i := 0; i < steps; i++ {
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if replayAllocs >= liveAllocs {
		t.Fatalf("tape replay allocates %.0f objects/run, live emulation %.0f; replay should be cheaper",
			replayAllocs, liveAllocs)
	}
	t.Logf("allocs/run: replay %.0f, live %.0f", replayAllocs, liveAllocs)
}
