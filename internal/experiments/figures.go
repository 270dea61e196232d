package experiments

import (
	"fmt"
	"strings"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/stats"
)

// SweepResult is the common shape of the simulation-driven figures: one
// float per (benchmark, config-key), plus a per-config summary mean.
type SweepResult struct {
	Title   string
	Metric  string // what the values are
	Benches []string
	Keys    []string
	Values  map[[2]string]float64 // (bench, key) -> metric
	Summary map[string]float64    // key -> mean across benches
	Note    string
}

// Value returns the metric for (bench, key).
func (r *SweepResult) Value(bench, key string) float64 {
	return r.Values[[2]string{bench, key}]
}

// String renders one row per benchmark, one column per config, plus the
// summary row.
func (r *SweepResult) String() string {
	header := append([]string{"Benchmark"}, r.Keys...)
	t := stats.NewTable(r.Title, header...)
	for _, b := range r.Benches {
		row := []string{b}
		for _, k := range r.Keys {
			row = append(row, stats.Num("%.2f", r.Value(b, k)))
		}
		t.AddRow(row...)
	}
	srow := []string{"MEAN"}
	for _, k := range r.Keys {
		srow = append(srow, stats.Num("%.2f", r.Summary[k]))
	}
	t.AddRow(srow...)
	var b strings.Builder
	b.WriteString(t.String())
	if r.Note != "" {
		b.WriteString(r.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// sweepResult tabulates v(bench, key) for every benchmark of o under each
// of keys, with mean over each key's column as its summary.
func sweepResult(o Options, title, metric string, keys []string,
	v func(bench, key string) float64, mean func([]float64) float64) *SweepResult {

	r := &SweepResult{
		Title:   title,
		Metric:  metric,
		Benches: o.benches(),
		Keys:    keys,
		Values:  make(map[[2]string]float64),
		Summary: make(map[string]float64),
	}
	for _, k := range keys {
		var xs []float64
		for _, b := range r.Benches {
			x := v(b, k)
			r.Values[[2]string{b, k}] = x
			xs = append(xs, x)
		}
		r.Summary[k] = mean(xs)
	}
	return r
}

// presets configures each front-end's preset under its own name.
func presets(fes ...pfe.FrontEnd) []config {
	cs := make([]config, len(fes))
	for i, fe := range fes {
		cs[i] = config{key: string(fe), machine: pfe.Preset(fe)}
	}
	return cs
}

// names returns the front-ends' names, which presets keys them by.
func names(fes []pfe.FrontEnd) []string {
	keys := make([]string, len(fes))
	for i, fe := range fes {
		keys[i] = string(fe)
	}
	return keys
}

var (
	fig4FrontEnds    = []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.TC2x, pfe.PF2x8w, pfe.PF4x4w}
	fig8FrontEnds    = []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.TC2x, pfe.PF2x8w, pfe.PF4x4w, pfe.PR2x8w, pfe.PR4x4w}
	delayedFrontEnds = []pfe.FrontEnd{pfe.PF2x8w, pfe.PR2x8w, pfe.PRD2x8w, pfe.PF4x4w, pfe.PR4x4w, pfe.PRD4x4w}
)

// renderFig4 reproduces Figure 4: fetch slot utilization per mechanism
// (harmonic mean across benchmarks, as in the paper).
func renderFig4(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := sweepResult(o, "Figure 4: Fetch Slot Utilization", "slot utilization",
		names(fig4FrontEnds),
		func(b, k string) float64 { return res[[2]string{b, k}].FetchSlotUtilization },
		stats.HarmonicMean)
	r.Note = "paper (harmonic means): W16 ~0.40, TC/TC2x ~0.60, PF-2x8w ~0.70, PF-4x4w ~0.80"
	return r
}

// Fig5Result holds Figure 5: per-mechanism fetch and rename rates.
type Fig5Result struct {
	Keys   []string
	Fetch  map[string]float64
	Rename map[string]float64
}

func renderFig5(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := &Fig5Result{Fetch: map[string]float64{}, Rename: map[string]float64{}}
	for _, fe := range fig8FrontEnds {
		k := string(fe)
		r.Keys = append(r.Keys, k)
		var f, rn []float64
		for _, b := range o.benches() {
			x := res[[2]string{b, k}]
			f = append(f, x.FetchRate)
			rn = append(rn, x.RenameRate)
		}
		r.Fetch[k] = stats.ArithmeticMean(f)
		r.Rename[k] = stats.ArithmeticMean(rn)
	}
	return r
}

// String renders fetch and rename instructions/cycle per mechanism.
func (r *Fig5Result) String() string {
	t := stats.NewTable("Figure 5: Instructions Fetched and Renamed per Cycle (incl. wrong path)",
		"Mechanism", "Fetch/cyc", "Rename/cyc")
	for _, k := range r.Keys {
		t.AddRow(k, stats.Num("%.2f", r.Fetch[k]), stats.Num("%.2f", r.Rename[k]))
	}
	return t.String() +
		"paper: PF fetch ~7/cyc (+20% vs TC, +49% vs W16); PR rename ~= PF rename +13%\n"
}

// renderFig6 reproduces Figure 6: the performance penalty of replacing a
// monolithic renamer with a parallel renamer under a trace-cache fetch unit
// (percent slowdown vs TC; positive = slower).
func renderFig6(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := sweepResult(o, "Figure 6: Slowdown of Parallel Renaming under Trace-Cache Fetch (% vs TC)", "% slowdown",
		[]string{string(pfe.TCPR2x8w), string(pfe.TCPR4x4w)},
		func(b, k string) float64 {
			return -stats.Speedup(res[[2]string{b, "TC"}].IPC, res[[2]string{b, k}].IPC)
		},
		stats.ArithmeticMean)
	r.Note = "paper: 2x8w ~1% average slowdown, 4x4w ~3.5%"
	return r
}

// renderFig8 reproduces Figure 8: percent speedup over W16 for TC, TC2x,
// PF/PR-2x8w and PF/PR-4x4w (the PR bars' lower sections are the PF
// configurations).
func renderFig8(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := sweepResult(o, "Figure 8: Performance (% speedup over W16)", "% speedup vs W16",
		[]string{"TC", "TC2x", "PF-2x8w", "PR-2x8w", "PF-4x4w", "PR-4x4w"},
		func(b, k string) float64 {
			return stats.Speedup(res[[2]string{b, "W16"}].IPC, res[[2]string{b, k}].IPC)
		},
		stats.ArithmeticMean)
	r.Note = "paper: PR-2x8w ~= TC2x with half the storage, ~TC+5%, ~W16+10-13%;\n" +
		"PR-4x4w ~TC+3%; on large-footprint benchmarks (crafty/gcc/perl/vortex) PR-2x8w beats TC by 10-20%"
	return r
}

var (
	fig9Sizes     = []int{8, 16, 32, 64, 128}
	fig9FrontEnds = []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.PR2x8w, pfe.PR4x4w}
)

// fig9Configs varies each front-end's total L1 instruction storage from 8
// to 128 KB.
func fig9Configs() []config {
	var cs []config
	for _, fe := range fig9FrontEnds {
		for _, kb := range fig9Sizes {
			cs = append(cs, config{fmt.Sprintf("%s@%dKB", fe, kb), pfe.Preset(fe).WithTotalL1I(kb)})
		}
	}
	return cs
}

// renderFig9 reproduces Figure 9: speedup over W16@64KB as total L1
// instruction storage varies from 8 to 128 KB.
func renderFig9(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := &Fig9Result{Sizes: fig9Sizes, Speedup: map[[2]string]float64{}}
	for _, fe := range fig9FrontEnds {
		r.FrontEnds = append(r.FrontEnds, string(fe))
		for _, kb := range fig9Sizes {
			k := fmt.Sprintf("%s@%dKB", fe, kb)
			var xs []float64
			for _, b := range o.benches() {
				base := res[[2]string{b, "W16@64KB"}].IPC
				xs = append(xs, res[[2]string{b, k}].IPC/base)
			}
			r.Speedup[[2]string{string(fe), fmt.Sprintf("%d", kb)}] = stats.GeometricMean(xs)
		}
	}
	return r
}

// Fig9Result holds the cache-size sensitivity curves.
type Fig9Result struct {
	Sizes     []int
	FrontEnds []string
	Speedup   map[[2]string]float64 // (frontend, sizeKB) -> mean speedup vs W16@64KB
}

// At returns the mean speedup for a front-end at a total-storage point.
func (r *Fig9Result) At(fe string, kb int) float64 {
	return r.Speedup[[2]string{fe, fmt.Sprintf("%d", kb)}]
}

// String renders one row per front-end, one column per storage size, plus
// an ASCII rendition of the figure's curves.
func (r *Fig9Result) String() string {
	header := []string{"FrontEnd"}
	for _, kb := range r.Sizes {
		header = append(header, fmt.Sprintf("%d KB", kb))
	}
	t := stats.NewTable("Figure 9: Sensitivity to Cache Size (speedup vs W16@64KB, geometric mean)", header...)
	xs := make([]float64, len(r.Sizes))
	for i := range r.Sizes {
		xs[i] = float64(i) // log-spaced axis: one step per doubling
	}
	plot := stats.NewPlot("", xs...)
	plot.XLabel = "total L1 instruction storage (8, 16, 32, 64, 128 KB)"
	for _, fe := range r.FrontEnds {
		row := []string{fe}
		ys := make([]float64, 0, len(r.Sizes))
		for _, kb := range r.Sizes {
			v := r.At(fe, kb)
			row = append(row, stats.Num("%.3f", v))
			ys = append(ys, v)
		}
		t.AddRow(row...)
		plot.AddSeries(fe, ys...)
	}
	return t.String() + plot.String() +
		"paper: PR loses only ~6% from 128KB to 8KB; sequential fetch is 50-62% slower than PR at small sizes;\nTC has the steepest slope\n"
}

var (
	fig10Entries   = []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	fig10FrontEnds = []pfe.FrontEnd{pfe.TC, pfe.PR2x8w, pfe.PR4x4w}
)

// fig10Configs is W16 at the default predictor plus each front-end at
// every primary-table size.
func fig10Configs() []config {
	cs := presets(pfe.W16)
	for _, fe := range fig10FrontEnds {
		for _, e := range fig10Entries {
			cs = append(cs, config{fmt.Sprintf("%s@%dK", fe, e>>10), pfe.Preset(fe).WithPredictorEntries(e)})
		}
	}
	return cs
}

// renderFig10 reproduces Figure 10: speedup over W16 (with the default 64K
// predictor) as the fragment predictor's primary table varies.
func renderFig10(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	r := &Fig10Result{Entries: fig10Entries, Speedup: map[[2]string]float64{}}
	for _, fe := range fig10FrontEnds {
		r.FrontEnds = append(r.FrontEnds, string(fe))
		for _, e := range fig10Entries {
			k := fmt.Sprintf("%s@%dK", fe, e>>10)
			var xs []float64
			for _, b := range o.benches() {
				base := res[[2]string{b, "W16"}].IPC
				xs = append(xs, res[[2]string{b, k}].IPC/base)
			}
			r.Speedup[[2]string{string(fe), fmt.Sprintf("%d", e>>10)}] = stats.GeometricMean(xs)
		}
	}
	return r
}

// Fig10Result holds the predictor-size sensitivity curves.
type Fig10Result struct {
	Entries   []int
	FrontEnds []string
	Speedup   map[[2]string]float64
}

// At returns the mean speedup for a front-end at a predictor size.
func (r *Fig10Result) At(fe string, entries int) float64 {
	return r.Speedup[[2]string{fe, fmt.Sprintf("%d", entries>>10)}]
}

// String renders one row per front-end, one column per predictor size, plus
// the curves.
func (r *Fig10Result) String() string {
	header := []string{"FrontEnd"}
	for _, e := range r.Entries {
		header = append(header, fmt.Sprintf("%dK", e>>10))
	}
	t := stats.NewTable("Figure 10: Sensitivity to Fragment Predictor Size (speedup vs W16, geometric mean)", header...)
	xs := make([]float64, len(r.Entries))
	for i := range r.Entries {
		xs[i] = float64(i)
	}
	plot := stats.NewPlot("", xs...)
	plot.XLabel = "fragment predictor primary entries (16K, 32K, 64K, 128K, 256K)"
	for _, fe := range r.FrontEnds {
		row := []string{fe}
		ys := make([]float64, 0, len(r.Entries))
		for _, e := range r.Entries {
			v := r.At(fe, e)
			row = append(row, stats.Num("%.3f", v))
			ys = append(ys, v)
		}
		t.AddRow(row...)
		plot.AddSeries(fe, ys...)
	}
	return t.String() + plot.String() + "paper: ~1.25% gain per predictor doubling for all mechanisms\n"
}

// renderConstruction reproduces the §3.2/§3.3 claims: fragment-buffer
// reuse (20-70% with 16 buffers) and fragments fully constructed before
// rename reads them (~84%, vs the trace cache's ~87% hit rate).
func renderConstruction(o Options, res map[[2]string]*pfe.Result) fmt.Stringer {
	t := stats.NewTable("§3.2/§3.3: Fragment Buffer Reuse and Just-in-Time Construction",
		"Benchmark", "Buffer reuse", "Constructed before rename", "TC hit rate")
	var reuse, early, tchit []float64
	for _, b := range o.benches() {
		pf := res[[2]string{b, "PF-2x8w"}]
		tc := res[[2]string{b, "TC"}]
		t.AddRow(b,
			stats.Num("%.2f", pf.BufferReuseRate),
			stats.Num("%.2f", pf.FragsConstructedEarly),
			stats.Num("%.2f", tc.TCHitRate))
		reuse = append(reuse, pf.BufferReuseRate)
		early = append(early, pf.FragsConstructedEarly)
		tchit = append(tchit, tc.TCHitRate)
	}
	t.AddRow("MEAN",
		stats.Num("%.2f", stats.ArithmeticMean(reuse)),
		stats.Num("%.2f", stats.ArithmeticMean(early)),
		stats.Num("%.2f", stats.ArithmeticMean(tchit)))
	return stringerString(t.String() +
		"paper: reuse 20-70%; 84% of fragments complete before rename; TC hit rate ~87%\n")
}

type stringerString string

func (s stringerString) String() string { return string(s) }
