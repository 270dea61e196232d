package experiments

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/stats"
)

// Fig7Result holds live-out predictor accuracy for each (entries, ways)
// point, averaged across the suite. Accuracy is the fraction of fragments
// whose complete live-out description (register bitmap and last-write
// bitmap) was predicted exactly; table misses count as mispredictions.
type Fig7Result struct {
	Entries  []int
	Ways     []int
	Accuracy map[[2]int]float64
}

// At returns the mean accuracy at (entries, ways).
func (r *Fig7Result) At(entries, ways int) float64 {
	return r.Accuracy[[2]int{entries, ways}]
}

// runFig7 sweeps the live-out predictor geometry over the true fragment
// stream of every benchmark — the predictor's accuracy does not depend on
// timing, so this experiment is trace-driven like the paper's own
// predictor characterization.
func runFig7(o Options) (fmt.Stringer, error) {
	entries := []int{256, 1024, 4096, 16384}
	ways := []int{1, 2, 4}
	budget := o.Measure
	if budget == 0 {
		budget = Default().Measure
	}

	r := &Fig7Result{Entries: entries, Ways: ways, Accuracy: map[[2]int]float64{}}
	sums := map[[2]int]float64{}
	for _, name := range o.benches() {
		spec, err := program.SpecByName(name)
		if err != nil {
			return nil, err
		}
		p, err := program.Build(spec)
		if err != nil {
			return nil, err
		}

		// One predictor per configuration, trained on the same stream.
		preds := map[[2]int]*rename.LiveOutPredictor{}
		correct := map[[2]int]int64{}
		for _, e := range entries {
			for _, w := range ways {
				preds[[2]int{e, w}] = rename.NewLiveOutPredictor(
					rename.LiveOutPredictorConfig{Entries: e, Ways: w})
			}
		}

		m := emu.New(p)
		var stream []frag.Dyn
		var total, frags int64
		for total < budget {
			for len(stream) < 2*frag.MaxLen && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					return nil, err
				}
				stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
			}
			if len(stream) == 0 {
				break
			}
			n, id := frag.Split(stream)
			insts := make(rename.Insts, n)
			for i := 0; i < n; i++ {
				insts[i] = stream[i].Inst
			}
			actual := rename.ComputeLiveOuts(insts)
			for key, lp := range preds {
				if pred, ok := lp.Predict(id); ok &&
					rename.CheckLiveOuts(pred, actual, insts) == rename.PredictionCorrect {
					correct[key]++
				}
				lp.Train(id, actual)
			}
			stream = stream[:copy(stream, stream[n:])]
			total += int64(n)
			frags++
		}
		for key := range preds {
			sums[key] += float64(correct[key]) / float64(frags)
		}
	}
	for key, s := range sums {
		r.Accuracy[key] = s / float64(len(o.benches()))
	}
	return r, nil
}

// String renders accuracy rows per associativity.
func (r *Fig7Result) String() string {
	header := []string{"Ways \\ Entries"}
	for _, e := range r.Entries {
		header = append(header, fmt.Sprintf("%d", e))
	}
	t := stats.NewTable("Figure 7: Live-Out Predictor Accuracy (mean across benchmarks)", header...)
	for _, w := range r.Ways {
		row := []string{fmt.Sprintf("%d-way", w)}
		for _, e := range r.Entries {
			row = append(row, fmt.Sprintf("%.3f", r.At(e, w)))
		}
		t.AddRow(row...)
	}
	return t.String() +
		"paper: space-limited; 2-way 4K entries reaches ~98%; 1->2 ways helps, 2->4 helps little\n"
}
