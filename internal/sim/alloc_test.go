package sim

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/program"
)

// alloc_test.go pins the allocation-free hot path: once a simulation has
// warmed past its transient phase (free lists populated, fragment memo
// covering the program's static code, FIFO capacities grown), Step must not
// touch the heap at all. Any regression — a map rebuilt per cycle, a slice
// reallocated per fragment, a closure capturing loop state — shows up here
// as a nonzero allocs-per-batch long before it shows up in benchstat noise.

// allocCases are the fetch organizations with the most per-cycle object
// traffic: the W16 sequential baseline, the paper's parallel front-end with
// four 4-wide sequencers (banked I-cache, fragment buffers, per-frag state),
// and parallel rename, whose interleaved inserts and live-out squashes
// re-insert ops out of order into the back-end's issue queue. The trace
// cache is excluded: trace construction memoizes new traces for as long as
// it keeps finding them, which is real work, not churn.
func allocCases() []core.Config {
	pf := feConfig("PF-4x4w", core.FetchParallel, core.RenameSequential)
	pf.Sequencers, pf.SeqWidth = 4, 4
	return []core.Config{
		feConfig("W16", core.FetchSequential, core.RenameSequential),
		pf,
		feConfig("PR-2x8w", core.FetchParallel, core.RenameParallel),
	}
}

func TestStepZeroAllocSteadyState(t *testing.T) {
	spec := program.TestSpec()
	spec.PhaseIters = 8000 // spec maximum: far more instructions than the stepped cycles consume
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range allocCases() {
		fe := fe
		t.Run(fe.Name, func(t *testing.T) {
			cfg := testConfig(fe)
			// The budget must outlast every Step below: completion would
			// end the run mid-measurement and hide the property under test.
			cfg.MeasureInsts = 1 << 40
			s, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm through the warmup->measure transition and every
			// transient growth phase (pools, memo, FIFO capacities).
			// PR-2x8w still meets new fragments after 10k cycles: about
			// one fragment-memo fill (frag.Heuristics.FromCode) per
			// 200-cycle batch, which is construction, not churn. After
			// 30k cycles it meets none.
			const warmCycles = 30_000
			for i := 0; i < warmCycles; i++ {
				if !s.Step() {
					t.Fatalf("simulation ended during warmup at cycle %d", i)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 200; i++ {
					if !s.Step() {
						t.Fatal("simulation ended during measurement")
					}
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Step allocated %.1f objects per 200-cycle batch, want 0", avg)
			}
		})
	}
}
