package pfe

import (
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// TestSelfProfileStageSeconds checks the sampled self-profiler attributes
// wall time to every stage of a parallel-rename front-end, including the
// phase-1/phase-2 sub-breakdown of rename, on a full run and on a sampled
// run (whose stage times are its detailed windows' summed).
func TestSelfProfileStageSeconds(t *testing.T) {
	full, err := Run("gcc", Preset(PR2x8w),
		RunOptions{WarmupInsts: 10_000, MeasureInsts: 40_000, SelfProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run("gcc", Preset(PR2x8w), RunOptions{
		WarmupInsts: 10_000, MeasureInsts: 40_000, SelfProfile: true,
		Sample:    &SampleSpec{Unit: 2_000, Period: 10_000, Warmup: 2_000},
		Artifacts: artifact.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sampling == nil || sampled.Sampling.Windows < 2 {
		t.Fatalf("sampled run has no windows to sum: %+v", sampled.Sampling)
	}
	for name, r := range map[string]*Result{"full": full, "sampled": sampled} {
		for _, stage := range []string{"fetch", "rename", "rename_phase1", "rename_phase2", "backend"} {
			if r.StageSeconds[stage] <= 0 {
				t.Errorf("%s: StageSeconds[%q] = %v, want > 0 (have %v)", name, stage, r.StageSeconds[stage], r.StageSeconds)
			}
		}
		// Phase 1+2 are a sub-breakdown of rename, not extra time: each
		// runs inside the rename stage, so neither can exceed the whole.
		// (They are separately-sampled estimates, so allow generous slack.)
		if p1 := r.StageSeconds["rename_phase1"]; p1 > 2*r.StageSeconds["rename"] {
			t.Errorf("%s: rename_phase1 (%v) implausibly exceeds rename (%v)", name, p1, r.StageSeconds["rename"])
		}
	}
}

// TestAggregateSimSumsStageSeconds pins how a sampled run combines
// its windows' self-profiles: each stage's seconds add up, and a window
// without a profile adds nothing.
func TestAggregateSimSumsStageSeconds(t *testing.T) {
	agg := aggregateSim([]*sim.Result{
		{Committed: 10, Cycles: 5, StageSeconds: map[string]float64{"fetch": 1, "backend": 0.5}},
		{Committed: 10, Cycles: 5, StageSeconds: map[string]float64{"fetch": 2}},
		{Committed: 10, Cycles: 5},
	})
	if want := map[string]float64{"fetch": 3, "backend": 0.5}; !reflect.DeepEqual(agg.StageSeconds, want) {
		t.Errorf("StageSeconds = %v, want %v", agg.StageSeconds, want)
	}
	if agg := aggregateSim([]*sim.Result{{Committed: 1, Cycles: 1}, {Committed: 1, Cycles: 1}}); agg.StageSeconds != nil {
		t.Errorf("unprofiled pieces aggregate to StageSeconds %v, want nil", agg.StageSeconds)
	}
}

// TestNoSelfProfileNoStageSeconds: without the flag, results carry no
// self-profile (the pay-for-use contract).
func TestNoSelfProfileNoStageSeconds(t *testing.T) {
	r, err := Run("gcc", Preset(W16), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.StageSeconds != nil {
		t.Errorf("StageSeconds = %v, want nil without SelfProfile", r.StageSeconds)
	}
}

// TestHistogramsNilSafe: Result renderers tolerate hand-constructed values
// without pipeline histograms, and nil receivers.
func TestHistogramsNilSafe(t *testing.T) {
	var nilRes *Result
	if got := nilRes.Histograms(); got != "" {
		t.Errorf("nil receiver: %q, want empty", got)
	}
	if got := (&Result{Bench: "gcc"}).Histograms(); got != "" {
		t.Errorf("nil pipeline: %q, want empty", got)
	}
	// A real run still renders them.
	r, err := Run("gcc", Preset(PR2x8w), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Histograms() == "" {
		t.Error("real run should render pipeline histograms")
	}
}
