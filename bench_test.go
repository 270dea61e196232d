package pfe_test

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§5), driven by the same runners as cmd/pfe-bench, so
//
//	go test -bench=. -benchmem
//
// regenerates every artifact. Benchmarks use reduced instruction budgets so
// the full sweep completes in minutes; run cmd/pfe-bench for the full-budget
// numbers recorded in EXPERIMENTS.md. Each benchmark reports the headline
// figure-of-merit as custom metrics and logs the full table.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/obs/span"
)

// benchOpts returns reduced budgets sized for the bench harness.
func benchOpts() experiments.Options {
	return experiments.Options{Warmup: 20_000, Measure: 60_000}
}

// runExperiment executes one experiment per b.N iteration, logging its
// rendered table once.
func runExperiment(b *testing.B, id string) interface{ String() string } {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last interface{ String() string }
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.Log("\n" + last.String())
	return last
}

func BenchmarkTable1Config(b *testing.B) {
	runExperiment(b, "table1")
}

func BenchmarkTable2FragmentSizes(b *testing.B) {
	res := runExperiment(b, "table2").(*experiments.Table2Result)
	var sum float64
	for _, row := range res.Rows {
		sum += row.AvgFragSize
	}
	b.ReportMetric(sum/float64(len(res.Rows)), "avgFragSize")
}

func BenchmarkFig4FetchSlotUtilization(b *testing.B) {
	res := runExperiment(b, "fig4").(*experiments.SweepResult)
	b.ReportMetric(res.Summary["W16"], "utilW16")
	b.ReportMetric(res.Summary["TC"], "utilTC")
	b.ReportMetric(res.Summary["PF-2x8w"], "utilPF2x8w")
	b.ReportMetric(res.Summary["PF-4x4w"], "utilPF4x4w")
}

func BenchmarkFig5FetchRenameRates(b *testing.B) {
	res := runExperiment(b, "fig5").(*experiments.Fig5Result)
	b.ReportMetric(res.Fetch["W16"], "fetchW16")
	b.ReportMetric(res.Fetch["PF-2x8w"], "fetchPF2x8w")
	b.ReportMetric(res.Rename["PF-2x8w"], "renamePF2x8w")
	b.ReportMetric(res.Rename["PR-2x8w"], "renamePR2x8w")
}

func BenchmarkFig6ParallelRenamePenalty(b *testing.B) {
	res := runExperiment(b, "fig6").(*experiments.SweepResult)
	b.ReportMetric(res.Summary["TC+PR-2x8w"], "slowdown2x8wPct")
	b.ReportMetric(res.Summary["TC+PR-4x4w"], "slowdown4x4wPct")
}

func BenchmarkFig7LiveOutPredictor(b *testing.B) {
	res := runExperiment(b, "fig7").(*experiments.Fig7Result)
	b.ReportMetric(res.At(4096, 2), "acc4K2way")
	b.ReportMetric(res.At(256, 1), "acc256direct")
}

func BenchmarkFig8Performance(b *testing.B) {
	res := runExperiment(b, "fig8").(*experiments.SweepResult)
	b.ReportMetric(res.Summary["TC"], "speedupTCPct")
	b.ReportMetric(res.Summary["TC2x"], "speedupTC2xPct")
	b.ReportMetric(res.Summary["PR-2x8w"], "speedupPR2x8wPct")
	b.ReportMetric(res.Summary["PR-4x4w"], "speedupPR4x4wPct")
}

func BenchmarkFig9CacheSizeSensitivity(b *testing.B) {
	res := runExperiment(b, "fig9").(*experiments.Fig9Result)
	// The paper's headline: PR loses only ~6% from 128 KB to 8 KB while
	// sequential mechanisms lose 50-65%.
	prLoss := 1 - res.At("PR-2x8w", 8)/res.At("PR-2x8w", 128)
	tcLoss := 1 - res.At("TC", 8)/res.At("TC", 128)
	w16Loss := 1 - res.At("W16", 8)/res.At("W16", 128)
	b.ReportMetric(100*prLoss, "prLossPct")
	b.ReportMetric(100*tcLoss, "tcLossPct")
	b.ReportMetric(100*w16Loss, "w16LossPct")
}

func BenchmarkFig10PredictorSizeSensitivity(b *testing.B) {
	res := runExperiment(b, "fig10").(*experiments.Fig10Result)
	// Gain per predictor doubling, averaged over the sweep, for PR-2x8w.
	first := res.At("PR-2x8w", 16<<10)
	last := res.At("PR-2x8w", 256<<10)
	gain := (last/first - 1) / 4 * 100 // four doublings
	b.ReportMetric(gain, "gainPerDoublingPct")
}

// BenchmarkSweepWorkloadReuse measures cross-cell workload reuse on the
// figure sweeps that share a config grid (fig4, fig5, fig8 all evaluate the
// same machine configurations over the same benchmarks), run as one sweep:
// each distinct cell simulates once. The cold variant runs without an
// artifact cache, so every cell rebuilds its benchmark and re-emulates from
// instruction zero; the cached variant shares program images and oracle
// tapes, with a fresh cache per iteration, so reuse within one sweep is
// what is being measured, not leftover state.
func BenchmarkSweepWorkloadReuse(b *testing.B) {
	var exps []experiments.Experiment
	for _, id := range []string{"fig4", "fig5", "fig8"} {
		exp, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, exp)
	}
	run := func(b *testing.B, cached bool) {
		for i := 0; i < b.N; i++ {
			opts := benchOpts()
			sims := &simCounter{}
			opts.Observer = sims
			if cached {
				opts.Artifacts = artifact.New(512 << 20)
			}
			if _, err := experiments.RunAll(opts, exps); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(sims.n.Load()), "sims")
				if cached {
					b.ReportMetric(float64(opts.Artifacts.Stats().TapeBytes)/(1<<20), "tapeMiB")
				}
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("artifact-cache", func(b *testing.B) { run(b, true) })
}

// simCounter counts the simulations a run completes.
type simCounter struct{ n atomic.Int64 }

func (c *simCounter) Planned(int) {}
func (c *simCounter) Completed(string, string, time.Duration, *pfe.Result) {
	c.n.Add(1)
}

// BenchmarkSampledRun is the sampling mode's speedup evidence: the same
// benchmark on the headline machine at full-paper budgets, exact versus
// sampled at the default window spec. Both sub-benchmarks share one
// artifact cache so the one-time tape recording (primed before timing) is
// excluded from both sides, as it is in a sweep. Compare ns/op: sampled
// simulates ~1/3 of the stream in detail and fast-forwards the rest by
// tape replay.
func BenchmarkSampledRun(b *testing.B) {
	m := pfe.Preset(pfe.PR2x8w)
	full := pfe.DefaultRunOptions()
	full.Artifacts = artifact.New(512 << 20)
	sampled := full
	sp := pfe.DefaultSampleSpec()
	sampled.Sample = &sp
	if _, err := pfe.Run("gcc", m, sampled); err != nil { // record the tape once
		b.Fatal(err)
	}
	for name, opts := range map[string]pfe.RunOptions{"full": full, "sampled": sampled} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := pfe.Run("gcc", m, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && r.Sampling != nil {
					b.ReportMetric(100*r.Sampling.IPCCI95/r.IPC, "ci95Pct")
				}
			}
		})
	}
}

// BenchmarkSampledWindows times only the detailed windows of one sampled
// cell, the "window" spans without tape recording or functional warming,
// and reports ns per detailed instruction (each window's detailed warmup
// plus its measured instructions). perfbench's sim.ns_per_inst on
// sampled-warm divides the whole cell's time, warming included, by the same
// instructions, so it cannot place a saving inside the windows. The cells
// are W16 and PR-2x8w on gcc and on twolf, which no perfbench workload
// runs: 1M instructions of warmup, then the default plan's 50 windows over
// 1M measured instructions. The tape is recorded and the prefix's warm
// state packed before timing starts.
func BenchmarkSampledWindows(b *testing.B) {
	for _, bench := range []string{"gcc", "twolf"} {
		for _, fe := range []pfe.FrontEnd{pfe.W16, pfe.PR2x8w} {
			b.Run(fmt.Sprintf("%s/%s", bench, fe), func(b *testing.B) {
				sp := pfe.DefaultSampleSpec()
				opts := pfe.RunOptions{
					WarmupInsts:  1_000_000,
					MeasureInsts: 1_000_000,
					Sample:       &sp,
					Artifacts:    artifact.New(256 << 20),
				}
				m := pfe.Preset(fe)
				if _, err := pfe.Run(bench, m, opts); err != nil {
					b.Fatal(err)
				}
				var windows time.Duration
				var insts int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts.Spans = span.New()
					r, err := pfe.Run(bench, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					for _, rec := range opts.Spans.Records() {
						if rec.Name == "window" {
							windows += rec.Dur()
						}
					}
					insts += r.Sampling.DetailedInsts
				}
				b.ReportMetric(float64(windows.Nanoseconds())/float64(insts), "ns/inst")
			})
		}
	}
}

func BenchmarkFragmentConstruction(b *testing.B) {
	runExperiment(b, "construction")
}

func BenchmarkAblationDelayedRename(b *testing.B) {
	res := runExperiment(b, "delayed").(*experiments.SweepResult)
	b.ReportMetric(res.Summary["PR-2x8w"], "ipcPR2x8w")
	b.ReportMetric(res.Summary["PRd-2x8w"], "ipcPRd2x8w")
}

func BenchmarkAblationSwitchOnMiss(b *testing.B) {
	res := runExperiment(b, "switchonmiss").(*experiments.SwitchOnMissResult)
	b.ReportMetric(res.GainPct[0], "gainAt8KBPct")
	b.ReportMetric(res.GainPct[len(res.GainPct)-1], "gainAt64KBPct")
}

func BenchmarkAblationFragmentSelection(b *testing.B) {
	res := runExperiment(b, "fragsel").(*experiments.FragSelResult)
	b.ReportMetric(res.IPC["PR-2x8w 16/8 (paper)"], "ipcPaperHeuristics")
	b.ReportMetric(res.IPC["PR-2x8w 32/16"], "ipcLongFragments")
}
