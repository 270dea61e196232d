package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
)

// ValidationRow is one benchmark's sampled-vs-full comparison: the exact
// (full-detail) IPC, the sampled estimate with its 95% confidence
// half-width, and whether the measured error falls inside the interval.
type ValidationRow struct {
	Bench      string  `json:"bench"`
	FullIPC    float64 `json:"full_ipc"`
	SampledIPC float64 `json:"sampled_ipc"`
	ErrPct     float64 `json:"err_pct"`  // signed, relative to FullIPC
	CI95Pct    float64 `json:"ci95_pct"` // half-width as a % of FullIPC
	Windows    int     `json:"windows"`
	Detailed   int64   `json:"detailed_insts"`
	Skipped    int64   `json:"skipped_insts"`
	Speedup    float64 `json:"speedup"` // full wall time / sampled wall time
	Pass       bool    `json:"pass"`
}

// Validation is the sampled-vs-full validation suite's outcome: one row per
// benchmark under one machine configuration and sampling spec. The suite
// passes only if every benchmark's sampled IPC lands within its own 95%
// confidence interval of the exact IPC — the statistical gate behind
// `pfe-bench -validate-sampling`.
type Validation struct {
	Config string          `json:"config"`
	Spec   pfe.SampleSpec  `json:"spec"`
	Rows   []ValidationRow `json:"rows"`
	Passed bool            `json:"passed"`
}

// ValidateSampling runs the sampled-vs-full validation suite: for every
// benchmark in o, one exact run and one sampled run under spec on machine
// m, compared row by row. A row passes when the sampled estimate's error is
// within its own 95% confidence half-width and the plan produced at least
// two windows (a single window supports no error claim). Rows run
// concurrently (see dispatch); each row's speedup compares the wall times
// of its own two runs.
func ValidateSampling(m pfe.Machine, spec pfe.SampleSpec, o Options) (*Validation, error) {
	if err := o.ctx().Err(); err != nil {
		return nil, err
	}
	benches := o.benches()
	ro := o.runOpts()
	ro.Sample = nil
	if ro.Artifacts == nil {
		// The sampled path needs tapes; budget two workloads per worker
		// plus slack so full and sampled runs of a benchmark share one
		// recording.
		ro.Artifacts = artifact.New(256 << 20)
	}

	type out struct {
		row ValidationRow
		err error
	}
	outs := make([]out, len(benches))
	dispatch(o.ctx(), len(benches), o.workers(), func(_, i int) {
		b := benches[i]
		t0 := time.Now()
		full, err := pfe.Run(b, m, ro)
		if err != nil {
			outs[i] = out{err: fmt.Errorf("validate %s full: %w", b, err)}
			return
		}
		fullWall := time.Since(t0)
		so := ro
		sp := spec
		so.Sample = &sp
		t1 := time.Now()
		sampled, err := pfe.Run(b, m, so)
		if err != nil {
			outs[i] = out{err: fmt.Errorf("validate %s sampled: %w", b, err)}
			return
		}
		sampledWall := time.Since(t1)
		row := ValidationRow{
			Bench:      b,
			FullIPC:    full.IPC,
			SampledIPC: sampled.SampledIPC,
			Windows:    sampled.Sampling.Windows,
			Detailed:   sampled.Sampling.DetailedInsts,
			Skipped:    sampled.Sampling.SkippedInsts,
		}
		if full.IPC > 0 {
			row.ErrPct = 100 * (sampled.SampledIPC - full.IPC) / full.IPC
			row.CI95Pct = 100 * sampled.Sampling.IPCCI95 / full.IPC
		}
		if sampledWall > 0 {
			row.Speedup = float64(fullWall) / float64(sampledWall)
		}
		row.Pass = row.Windows >= 2 && math.Abs(row.ErrPct) <= row.CI95Pct
		outs[i] = out{row: row}
	})
	if err := o.ctx().Err(); err != nil {
		return nil, err
	}

	v := &Validation{Config: m.Name(), Spec: spec, Passed: true}
	for _, ot := range outs {
		if ot.err != nil {
			return nil, ot.err
		}
		v.Rows = append(v.Rows, ot.row)
		if !ot.row.Pass {
			v.Passed = false
		}
	}
	return v, nil
}

// String renders the validation as the error table EXPERIMENTS.md records.
func (v *Validation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled-vs-full validation — %s, unit %d / period %d / warmup %d\n\n",
		v.Config, v.Spec.Unit, v.Spec.Period, v.Spec.Warmup)
	fmt.Fprintf(&b, "%-10s %9s %9s %8s %8s %4s %8s  %s\n",
		"bench", "full", "sampled", "err", "ci95", "win", "speedup", "gate")
	for _, r := range v.Rows {
		gate := "pass"
		if !r.Pass {
			gate = "FAIL"
		}
		fmt.Fprintf(&b, "%-10s %9.4f %9.4f %7.2f%% %7.2f%% %4d %7.1fx  %s\n",
			r.Bench, r.FullIPC, r.SampledIPC, r.ErrPct, r.CI95Pct, r.Windows, r.Speedup, gate)
	}
	if v.Passed {
		b.WriteString("\nPASS: every benchmark's error is within its 95% confidence interval\n")
	} else {
		b.WriteString("\nFAIL: at least one benchmark's error exceeds its confidence interval\n")
	}
	return b.String()
}
