package main

import (
	"strings"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// def returns accelFlags as flag.Parse would leave them with no
// acceleration flags given: sampling window parameters at their defaults.
func def() accelFlags {
	ds := pfe.DefaultSampleSpec()
	return accelFlags{Unit: ds.Unit, Period: ds.Period, Warmup: ds.Warmup}
}

// TestAccelFlagsValidate pins the usage-error surface: contradictory or
// nonsensical acceleration flag combinations are rejected before any
// simulation starts, everything coherent passes.
func TestAccelFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*accelFlags)
		wantErr string // substring; empty = must pass
	}{
		{"defaults", func(a *accelFlags) {}, ""},
		{"sample alone", func(a *accelFlags) { a.Sample = true }, ""},
		{"validate alone", func(a *accelFlags) { a.Validate = true }, ""},
		{"zero unit", func(a *accelFlags) { a.Sample = true; a.Unit = 0 }, "positive"},
		{"zero period", func(a *accelFlags) { a.Validate = true; a.Period = 0 }, "positive"},
		{"window exceeds period", func(a *accelFlags) {
			a.Sample = true
			a.Unit, a.Period, a.Warmup = 5_000, 6_000, 2_000
		}, "overlap"},
		{"bad spec ignored when sampling off", func(a *accelFlags) { a.Unit = -1 }, ""},
	}
	for _, tc := range cases {
		a := def()
		tc.mutate(&a)
		err := a.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: no error, want one mentioning %q", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestAccelFlagsApplyStamp pins the wiring: sampling reaches the experiment
// options and the report's run spec, and without it both stay zero (so
// exact-mode reports are unchanged byte for byte).
func TestAccelFlagsApplyStamp(t *testing.T) {
	a := def()
	a.Sample = true
	var opts experiments.Options
	var spec obs.RunSpec
	a.apply(&opts)
	a.stamp(&spec)
	if opts.Sample == nil || *opts.Sample != a.spec() {
		t.Errorf("apply: opts.Sample = %+v, want %+v", opts.Sample, a.spec())
	}
	if spec.SampleUnit != a.Unit || spec.SamplePeriod != a.Period || spec.SampleWarmup != a.Warmup {
		t.Errorf("stamp: spec = %+v, want the sampling parameters", spec)
	}

	c := def() // no modes: both must stay zero-valued
	opts, spec = experiments.Options{}, obs.RunSpec{}
	c.apply(&opts)
	c.stamp(&spec)
	if opts.Sample != nil ||
		spec.SampleUnit != 0 || spec.SamplePeriod != 0 || spec.SampleWarmup != 0 {
		t.Errorf("inactive modes leaked: opts %+v spec %+v", opts, spec)
	}
}

// TestStageTotalsCountSimulatedCellsOnce pins the -selfprofile sum behind
// both the stderr summary and the -json report: a completion with wall 0 (a
// resume replay, carrying the profile of the run it repeats) adds nothing,
// and every cell that simulated adds its stage times once.
func TestStageTotalsCountSimulatedCellsOnce(t *testing.T) {
	stages := &stageTotals{}
	c := &cellObserver{tracker: obs.NewTracker(), stages: stages}
	r := &pfe.Result{StageSeconds: map[string]float64{"fetch": 0.5, "backend": 0.25}}
	c.Completed("gcc", "W16", 0, r)
	if got := stages.sum(); len(got) != 0 {
		t.Fatalf("a wall-0 completion added %v, want nothing", got)
	}
	c.Completed("gcc", "W16", time.Millisecond, r)
	c.Completed("gzip", "W16", time.Millisecond, r)
	c.Completed("gzip", "W16", 0, r)
	got := stages.sum()
	if len(got) != 2 || got["fetch"] != 1.0 || got["backend"] != 0.5 {
		t.Errorf("stage sum = %v, want fetch 1 and backend 0.5 (two simulated cells)", got)
	}
}
