package pfe

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// TestSlicedRunDeterministic extends the determinism golden suite to the
// time-parallel mode: a K-sliced run must be bit-identical across worker
// counts for K ∈ {1, 2, 8}, and the K=1 degenerate must equal the exact
// serial run field for field (the tape replay is bit-identical to live
// emulation, and a single slice takes the serial path through the same
// budgets).
func TestSlicedRunDeterministic(t *testing.T) {
	m := Preset(PR2x8w)
	serial, err := Run("gcc", m, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 8} {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			opts := Quick()
			opts.Slices = k
			opts.SliceWorkers = workers
			got, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatalf("K=%d workers=%d: %v", k, workers, err)
			}
			if len(got.Slices) != k {
				t.Fatalf("K=%d workers=%d: %d slice records", k, workers, len(got.Slices))
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("K=%d: results differ between worker counts 1 and %d:\n ref %+v\n got %+v",
					k, workers, ref, got)
			}
		}
		if k == 1 {
			// The serial run reports no slice provenance; everything else
			// must match bit for bit.
			k1 := *ref
			k1.Slices = nil
			if !reflect.DeepEqual(&k1, serial) {
				t.Errorf("K=1 differs from the serial run:\n serial %+v\n sliced %+v", serial, &k1)
			}
		}
	}
}

// TestSlicedSeamReconciliation pins the seam arithmetic: interior slices are
// trimmed to their quota (each measured instruction counted exactly once),
// so the aggregate commit count equals the budget plus only the final
// slice's natural commit-width overshoot, and the aggregate IPC stays within
// the bounded seam error of the serial run.
func TestSlicedSeamReconciliation(t *testing.T) {
	m := Preset(PR2x8w)
	opts := Quick()
	serial, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Slices = 8
	got, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, s := range got.Slices {
		sum += s.Committed
		if i < len(got.Slices)-1 && s.Committed != s.MeasureInsts {
			t.Errorf("slice %d: committed %d after trim, quota %d", i, s.Committed, s.MeasureInsts)
		}
		if s.Cycles == 0 || s.IPC <= 0 {
			t.Errorf("slice %d: empty measurement: %+v", i, s)
		}
	}
	if sum != got.Committed {
		t.Errorf("slice commits sum to %d, aggregate reports %d", sum, got.Committed)
	}
	last := got.Slices[len(got.Slices)-1]
	if base := opts.MeasureInsts; got.Committed < base || got.Committed > base+last.Overshoot+64 {
		t.Errorf("aggregate committed %d outside [%d, %d+width]", got.Committed, base, base)
	}
	if rel := math.Abs(got.IPC-serial.IPC) / serial.IPC; rel > 0.10 {
		t.Errorf("sliced IPC %.4f vs serial %.4f: %.1f%% seam error (bound 10%%)",
			got.IPC, serial.IPC, 100*rel)
	}
}

// TestSlicedMoreSlicesThanInstructions clamps K so no slice gets an empty
// quota.
func TestSlicedMoreSlicesThanInstructions(t *testing.T) {
	opts := RunOptions{WarmupInsts: 2_000, MeasureInsts: 4, Slices: 16}
	got, err := Run("gzip", Preset(W16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Slices) != 4 {
		t.Fatalf("K clamped to %d slices, want 4 (one per instruction)", len(got.Slices))
	}
}

// TestSlicedKeepsOneMemoPerSlice: slices run concurrently, so each interior
// slice builds its fragments through its own warm set's memo, and slice 0's
// stream makes its own. Two slices sharing a memo would write one map from
// two goroutines.
func TestSlicedKeepsOneMemoPerSlice(t *testing.T) {
	const k = 4
	var mu sync.Mutex
	memos := map[*frag.Memo]int{}
	run := runDetailed
	defer func() { runDetailed = run }()
	runDetailed = func(p *program.Program, cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		memos[cfg.Frags]++
		mu.Unlock()
		return run(p, cfg)
	}
	opts := Quick()
	opts.Slices = k
	opts.SliceWorkers = k
	if _, err := Run("gcc", Preset(PR2x8w), opts); err != nil {
		t.Fatal(err)
	}
	if memos[nil] != 1 {
		t.Errorf("%d slices left their stream to make a memo, want 1 (slice 0)", memos[nil])
	}
	delete(memos, nil)
	for m, n := range memos {
		if n != 1 {
			t.Errorf("%d slices share memo %p", n, m)
		}
	}
	if len(memos) != k-1 {
		t.Errorf("%d distinct memos for %d interior slices", len(memos), k-1)
	}
}
