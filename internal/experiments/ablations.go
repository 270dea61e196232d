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

// runDelayed compares the two parallel-rename designs of §4 plus the
// sequential-rename baseline on the full suite.
func runDelayed(o Options) (fmt.Stringer, error) {
	fes := []pfe.FrontEnd{pfe.PF2x8w, pfe.PR2x8w, pfe.PRD2x8w, pfe.PF4x4w, pfe.PR4x4w, pfe.PRD4x4w}
	var cells []cell
	for _, b := range o.benches() {
		for _, fe := range fes {
			cells = append(cells, cell{bench: b, machine: pfe.Preset(fe), key: string(fe)})
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(fes))
	for i, fe := range fes {
		keys[i] = string(fe)
	}
	r := &SweepResult{
		Title:   "Ablation: §4's two parallel-rename designs (IPC)",
		Metric:  "IPC",
		Benches: o.benches(),
		Keys:    keys,
		Values:  map[[2]string]float64{},
		Summary: map[string]float64{},
	}
	for _, k := range keys {
		var xs []float64
		for _, b := range r.Benches {
			v := results[[2]string{b, k}].IPC
			r.Values[[2]string{b, k}] = v
			xs = append(xs, v)
		}
		r.Summary[k] = stats.ArithmeticMean(xs)
	}
	r.Note = "PRd = delayed rename (solution 1: no live-out prediction, instructions wait for\n" +
		"cross-fragment mappings). The paper predicts solution 2 (PR) wins on latency;\n" +
		"solution 1 never squashes but holds fragments in buffers longer."
	return r, nil
}

// runSwitchOnMiss measures §2.2's switch-on-miss policy where misses are
// frequent: PF-2x8w with and without the policy across cache sizes.
func runSwitchOnMiss(o Options) (fmt.Stringer, error) {
	sizes := []int{8, 16, 32, 64}
	var cells []cell
	for _, b := range o.benches() {
		for _, kb := range sizes {
			cells = append(cells, cell{
				bench: b, machine: pfe.Preset(pfe.PF2x8w).WithTotalL1I(kb),
				key: fmt.Sprintf("base@%dKB", kb),
			})
			cells = append(cells, cell{
				bench: b, machine: pfe.Preset(pfe.PF2x8w).WithTotalL1I(kb).WithSwitchOnMiss(),
				key: fmt.Sprintf("som@%dKB", kb),
			})
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: switch-on-miss sequencers (PF-2x8w, mean IPC gain %)",
		"Total L1I", "base IPC", "switch-on-miss IPC", "gain %")
	res := &SwitchOnMissResult{table: t}
	for _, kb := range sizes {
		var base, som []float64
		for _, b := range o.benches() {
			base = append(base, results[[2]string{b, fmt.Sprintf("base@%dKB", kb)}].IPC)
			som = append(som, results[[2]string{b, fmt.Sprintf("som@%dKB", kb)}].IPC)
		}
		gb, gs := stats.GeometricMean(base), stats.GeometricMean(som)
		gain := stats.Speedup(gb, gs)
		res.GainPct = append(res.GainPct, gain)
		res.SizesKB = append(res.SizesKB, kb)
		t.AddRow(fmt.Sprintf("%d KB", kb),
			stats.Num("%.3f", gb), stats.Num("%.3f", gs), stats.Num("%+.2f", gain))
	}
	return res, nil
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

// runFragSel sweeps the fragment-selection heuristics (§6): the paper's
// 16/8 against longer fragments.
func runFragSel(o Options) (fmt.Stringer, error) {
	type variant struct {
		key    string
		maxLen int
		cutoff int
	}
	variants := []variant{
		{"16/8 (paper)", 16, 8},
		{"24/12", 24, 12},
		{"32/16", 32, 16},
	}
	fes := []pfe.FrontEnd{pfe.PF2x8w, pfe.PR2x8w}
	var cells []cell
	for _, b := range o.benches() {
		for _, fe := range fes {
			for _, v := range variants {
				cells = append(cells, cell{
					bench:   b,
					machine: pfe.Preset(fe).WithFragmentHeuristics(v.maxLen, v.cutoff),
					key:     string(fe) + " " + v.key,
				})
			}
		}
	}
	results, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: fragment selection heuristics (mean IPC; mean fragment-prediction accuracy)",
		"Config", "IPC", "frag-pred")
	res := &FragSelResult{table: t, IPC: map[string]float64{}}
	for _, fe := range fes {
		for _, v := range variants {
			k := string(fe) + " " + v.key
			var ipc, acc []float64
			for _, b := range o.benches() {
				r := results[[2]string{b, k}]
				ipc = append(ipc, r.IPC)
				acc = append(acc, r.FragPredAccuracy)
			}
			mi := stats.GeometricMean(ipc)
			res.IPC[k] = mi
			t.AddRow(k, stats.Num("%.3f", mi), stats.Num("%.3f", stats.ArithmeticMean(acc)))
		}
	}
	return res, nil
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
