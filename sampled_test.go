package pfe

import (
	"math"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// TestSampledRun exercises the systematic-sampling mode end to end: the
// estimate comes with its confidence interval, the window plan covers the
// measured stream, and the estimate lands near the full run's IPC. (The
// strict accuracy gate — error within the CI on every benchmark — is the
// -validate-sampling suite; this pins the plumbing.)
func TestSampledRun(t *testing.T) {
	m := Preset(PR2x8w)
	opts := Quick()
	full, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_500}
	got, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := got.Sampling
	if s == nil {
		t.Fatal("sampled run returned no Sampling info")
	}
	if want := 12; s.Windows != want { // 60 K measured / 5 K period
		t.Errorf("Windows = %d, want %d", s.Windows, want)
	}
	if len(s.WindowIPCs) != s.Windows {
		t.Errorf("WindowIPCs has %d entries for %d windows", len(s.WindowIPCs), s.Windows)
	}
	if got.IPC != s.IPCMean || got.SampledIPC != s.IPCMean {
		t.Errorf("IPC %v / SampledIPC %v disagree with IPCMean %v", got.IPC, got.SampledIPC, s.IPCMean)
	}
	if s.IPCCI95 <= 0 || math.IsInf(s.IPCCI95, 1) {
		t.Errorf("CI95 = %v, want finite and positive for %d windows", s.IPCCI95, s.Windows)
	}
	if s.DetailedInsts <= 0 || s.SkippedInsts <= 0 {
		t.Errorf("detailed=%d skipped=%d, want both positive (sampling should skip most of the stream)",
			s.DetailedInsts, s.SkippedInsts)
	}
	if got.Pipeline == nil || got.Committed <= 0 || got.Cycles == 0 {
		t.Errorf("aggregate result incomplete: committed=%d cycles=%d pipeline=%v",
			got.Committed, got.Cycles, got.Pipeline)
	}
	if rel := math.Abs(got.IPC-full.IPC) / full.IPC; rel > 0.08 {
		t.Errorf("sampled IPC %.4f vs full %.4f: %.1f%% error (plumbing-level sanity bound 8%%)",
			got.IPC, full.IPC, 100*rel)
	}
}

// TestSampledSingleWindow pins the degenerate plan: a unit covering the
// whole measurement yields one window, whose estimate carries an infinite
// confidence half-width (one observation supports no error claim).
func TestSampledSingleWindow(t *testing.T) {
	opts := RunOptions{WarmupInsts: 5_000, MeasureInsts: 10_000,
		Sample: &SampleSpec{Unit: 20_000, Period: 50_000, Warmup: 1_000}}
	got, err := Run("gzip", Preset(W16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampling.Windows != 1 {
		t.Fatalf("Windows = %d, want 1", got.Sampling.Windows)
	}
	if !math.IsInf(got.Sampling.IPCCI95, 1) {
		t.Errorf("CI95 = %v for a single window, want +Inf", got.Sampling.IPCCI95)
	}
}

// TestSampleSpecValidate rejects non-positive window parameters.
func TestSampleSpecValidate(t *testing.T) {
	for _, spec := range []SampleSpec{
		{Unit: 0, Period: 100, Warmup: 0},
		{Unit: 100, Period: 0, Warmup: 0},
		{Unit: 100, Period: 100, Warmup: -1},
	} {
		opts := Quick()
		opts.Sample = &spec
		if _, err := Run("gcc", Preset(W16), opts); err == nil {
			t.Errorf("Run accepted invalid sample spec %+v", spec)
		}
	}
}

// TestSampledBuildsEachFragmentOnce pins the fragment memo a sampled cell
// shares: its functional warmer and every one of its detailed windows build
// fragments through one memo, so each distinct fragment ID is built once
// per cell rather than once per window. Every window must receive the same
// memo (a nil one would make the window's stream build its own), the
// warmer must have built into it before the first window, and the windows
// must keep building into it. The memo's size then counts the cell's
// builds. The cells are the sampled golden configuration's gcc PR-2x8w
// machines, with the paper's heuristics and with (32, 16).
func TestSampledBuildsEachFragmentOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		m    Machine
	}{
		{"PR-2x8w", Preset(PR2x8w)},
		{"PR-2x8w/frag32-16", Preset(PR2x8w).WithFragmentHeuristics(32, 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var memos []*frag.Memo
			var sizes []int // each window's memo size when it starts
			run := runDetailed
			defer func() { runDetailed = run }()
			runDetailed = func(p *program.Program, cfg sim.Config) (*sim.Result, error) {
				memos = append(memos, cfg.Frags)
				if cfg.Frags != nil {
					sizes = append(sizes, cfg.Frags.Len())
				}
				return run(p, cfg)
			}
			r, err := Run("gcc", c.m, RunOptions{
				WarmupInsts:  300_000,
				MeasureInsts: 60_000,
				Sample:       &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_500},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(memos) != r.Sampling.Windows || len(memos) < 2 {
				t.Fatalf("%d detailed runs for %d windows", len(memos), r.Sampling.Windows)
			}
			memo := memos[0]
			for i, m := range memos {
				if m == nil || m != memo {
					t.Fatalf("window %d builds through memo %p, window 0 through %p", i, m, memo)
				}
			}
			if sizes[0] == 0 {
				t.Fatal("the warmer built no fragment into the windows' memo")
			}
			for i := 1; i < len(sizes); i++ {
				if sizes[i] < sizes[i-1] {
					t.Fatalf("memo shrank from %d to %d fragments at window %d", sizes[i-1], sizes[i], i)
				}
			}
			if memo.Len() <= sizes[0] {
				t.Errorf("windows built no fragment of their own (%d before, %d after)", sizes[0], memo.Len())
			}
			t.Logf("%d fragments built once for the warmer and %d windows (%d by the warmer)", memo.Len(), len(memos), sizes[0])
		})
	}
}
