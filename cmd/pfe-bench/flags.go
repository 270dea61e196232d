package main

import (
	"fmt"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// accelFlags groups the tape-powered acceleration flags: systematic
// sampling (-sample and its window parameters) and the sampled-vs-full
// validation suite (-validate-sampling).
type accelFlags struct {
	Sample   bool
	Unit     int64
	Period   int64
	Warmup   int64
	Validate bool
}

// validate rejects contradictory or nonsensical combinations before any
// simulation starts. Errors here are usage errors (exit 2).
func (a accelFlags) validate() error {
	if a.Sample || a.Validate {
		if a.Unit <= 0 || a.Period <= 0 || a.Warmup < 0 {
			return fmt.Errorf("-sample-unit %d / -sample-period %d / -sample-warmup %d: "+
				"unit and period must be positive, warmup non-negative", a.Unit, a.Period, a.Warmup)
		}
		if a.Warmup+a.Unit > a.Period {
			return fmt.Errorf("-sample-warmup %d + -sample-unit %d exceed -sample-period %d: "+
				"windows would overlap; grow the period or shrink the window", a.Warmup, a.Unit, a.Period)
		}
	}
	return nil
}

// spec assembles the sampling window parameters.
func (a accelFlags) spec() pfe.SampleSpec {
	return pfe.SampleSpec{Unit: a.Unit, Period: a.Period, Warmup: a.Warmup}
}

// apply threads sampling into the experiment options.
func (a accelFlags) apply(opts *experiments.Options) {
	if a.Sample {
		sp := a.spec()
		opts.Sample = &sp
	}
}

// stamp records sampling in a JSON report's run spec, so a report says how
// its numbers were produced.
func (a accelFlags) stamp(spec *obs.RunSpec) {
	if a.Sample {
		spec.SampleUnit = a.Unit
		spec.SamplePeriod = a.Period
		spec.SampleWarmup = a.Warmup
	}
}
