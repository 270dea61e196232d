package experiments

import (
	"fmt"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/stats"
)

// The ablations extend the paper's evaluation along the axes its text
// raises but does not measure:
//
//   - "delayed": §4's first solution (Multiscalar-style delayed rename)
//     against the live-out-prediction scheme the paper chose;
//   - "switchonmiss": §2.2's optional sequencer policy (park a missing
//     fragment, fetch another meanwhile), measured where it should matter —
//     small instruction caches;
//   - "fragsel": §6's future-work direction, longer fragments with more
//     intra-fragment control flow.

// renderDelayed compares the two parallel-rename designs of §4 plus the
// sequential-rename baseline on the full suite.
func renderDelayed(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := sweepResult(o, "Ablation: §4's two parallel-rename designs (IPC)", "IPC",
		names(delayedFrontEnds),
		func(b, k string) float64 { return res[[2]string{b, k}].IPC },
		stats.ArithmeticMean)
	r.Note = "PRd = delayed rename (solution 1: no live-out prediction, instructions wait for\n" +
		"cross-fragment mappings). The paper predicts solution 2 (PR) wins on latency;\n" +
		"solution 1 never squashes but holds fragments in buffers longer."
	return r
}

var switchOnMissSizes = []int{8, 16, 32, 64}

// switchOnMissConfigs is PF-2x8w with and without §2.2's switch-on-miss
// policy across cache sizes, where misses are frequent.
func switchOnMissConfigs() []config {
	var cs []config
	for _, kb := range switchOnMissSizes {
		m := pfe.Preset(pfe.PF2x8w).WithTotalL1I(kb)
		cs = append(cs,
			config{fmt.Sprintf("base@%dKB", kb), m},
			config{fmt.Sprintf("som@%dKB", kb), m.WithSwitchOnMiss()})
	}
	return cs
}

// renderSwitchOnMiss measures the switch-on-miss policy's gain per cache
// size.
func renderSwitchOnMiss(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	t := stats.NewTable("Ablation: switch-on-miss sequencers (PF-2x8w, mean IPC gain %)",
		"Total L1I", "base IPC", "switch-on-miss IPC", "gain %")
	r := &SwitchOnMissResult{table: t}
	for _, kb := range switchOnMissSizes {
		var base, som []float64
		for _, b := range o.benches() {
			base = append(base, res[[2]string{b, fmt.Sprintf("base@%dKB", kb)}].IPC)
			som = append(som, res[[2]string{b, fmt.Sprintf("som@%dKB", kb)}].IPC)
		}
		gb, gs := stats.GeometricMean(base), stats.GeometricMean(som)
		gain := stats.Speedup(gb, gs)
		r.GainPct = append(r.GainPct, gain)
		r.SizesKB = append(r.SizesKB, kb)
		t.AddRow(fmt.Sprintf("%d KB", kb),
			stats.Num("%.3f", gb), stats.Num("%.3f", gs), stats.Num("%+.2f", gain))
	}
	return r
}

// SwitchOnMissResult carries the switch-on-miss gains per cache size.
type SwitchOnMissResult struct {
	SizesKB []int
	GainPct []float64
	table   *stats.Table
}

// String renders the gain table.
func (r *SwitchOnMissResult) String() string {
	return r.table.String() +
		"expected: gains grow as the cache shrinks (more misses to hide); ~0 at 64 KB\n"
}

// fragSelConfigs sweeps the fragment-selection heuristics (§6): the paper's
// 16/8 against longer fragments, on PF-2x8w and PR-2x8w.
func fragSelConfigs() []config {
	var cs []config
	for _, fe := range []pfe.FrontEnd{pfe.PF2x8w, pfe.PR2x8w} {
		for _, v := range []struct {
			name           string
			maxLen, cutoff int
		}{{"16/8 (paper)", 16, 8}, {"24/12", 24, 12}, {"32/16", 32, 16}} {
			cs = append(cs, config{string(fe) + " " + v.name, pfe.Preset(fe).WithFragmentHeuristics(v.maxLen, v.cutoff)})
		}
	}
	return cs
}

// renderFragSel tabulates each heuristic's mean IPC and fragment-prediction
// accuracy.
func renderFragSel(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	t := stats.NewTable("Ablation: fragment selection heuristics (mean IPC; mean fragment-prediction accuracy)",
		"Config", "IPC", "frag-pred")
	r := &FragSelResult{table: t, IPC: map[string]float64{}}
	for _, c := range fragSelConfigs() {
		var ipc, acc []float64
		for _, b := range o.benches() {
			x := res[[2]string{b, c.key}]
			ipc = append(ipc, x.IPC)
			acc = append(acc, x.FragPredAccuracy)
		}
		mi := stats.GeometricMean(ipc)
		r.IPC[c.key] = mi
		t.AddRow(c.key, stats.Num("%.3f", mi), stats.Num("%.3f", stats.ArithmeticMean(acc)))
	}
	return r
}

// FragSelResult carries the fragment-selection sweep.
type FragSelResult struct {
	IPC   map[string]float64
	table *stats.Table
}

// String renders the sweep.
func (r *FragSelResult) String() string {
	return r.table.String() +
		"longer fragments raise per-prediction throughput but each prediction carries\n" +
		"more branches, so prediction accuracy (and wrong-path cost) suffers\n"
}
