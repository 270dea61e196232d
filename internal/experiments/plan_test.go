package experiments

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/journal"
)

// completions records every Completed call of a run.
type completions struct {
	mu      sync.Mutex
	planned int
	cells   [][2]string
}

func (c *completions) Planned(n int) { c.mu.Lock(); c.planned += n; c.mu.Unlock() }
func (c *completions) Completed(bench, key string, _ time.Duration, _ *pfe.Result) {
	c.mu.Lock()
	c.cells = append(c.cells, [2]string{bench, key})
	c.mu.Unlock()
}

func experimentsByID(t *testing.T, ids ...string) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range ids {
		exps = append(exps, mustByID(t, id))
	}
	return exps
}

// TestRunAllMatchesRunAlone pins the one-sweep run against each experiment
// run on its own, exact and sampled: every table RunAll renders from the
// shared result set is the table the experiment renders alone, and the
// observer sees each distinct simulation complete exactly once — 52 per
// benchmark where the experiments request 80.
func TestRunAllMatchesRunAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	exact := Options{Warmup: 2_000, Measure: 8_000, Benchmarks: []string{"gzip", "mcf"}}
	sampled := exact
	sampled.Sample = &pfe.SampleSpec{Unit: 1000, Period: 5000, Warmup: 1500}
	for name, base := range map[string]Options{"exact": exact, "sampled": sampled} {
		t.Run(name, func(t *testing.T) {
			o := base
			o.Artifacts = artifact.New(0)
			seen := &completions{}
			o.Observer = seen
			outs, err := RunAll(o, All())
			if err != nil {
				t.Fatal(err)
			}
			requested := 0
			for i, e := range All() {
				alone := base
				alone.Artifacts = artifact.New(0)
				want, err := e.Run(alone)
				if err != nil {
					t.Fatalf("%s alone: %v", e.ID, err)
				}
				if got := outs[i].Table.String(); got != want.String() {
					t.Errorf("%s: RunAll rendered\n%s\nalone it renders\n%s", e.ID, got, want)
				}
				requested += len(outs[i].Results)
			}
			if requested != 2*80 || seen.planned != 2*52 || len(seen.cells) != 2*52 {
				t.Errorf("%d cells requested, %d planned, %d completed; want 160, 104, 104",
					requested, seen.planned, len(seen.cells))
			}
			distinct := map[[2]string]bool{}
			for _, c := range seen.cells {
				if distinct[c] {
					t.Errorf("%s/%s completed twice", c[0], c[1])
				}
				distinct[c] = true
			}
		})
	}
}

// TestPlanKeepsOneCellPerSimulation pins the planner's dedup: Fig 4, Fig 5
// and Fig 8 over two benchmarks request 38 cells, which are 14 simulations
// (Fig 8's seven presets on each benchmark), and Fig 9's W16@64KB and
// TC@64KB are Fig 4's W16 and TC under other keys: one simulation each,
// named by its first requester, with the later key as an alias.
func TestPlanKeepsOneCellPerSimulation(t *testing.T) {
	o := Options{Warmup: 2_000, Measure: 8_000, Benchmarks: []string{"gzip", "mcf"}}
	sims, reads := plan(o, experimentsByID(t, "fig4", "fig5", "fig8"))
	if len(sims) != 14 {
		t.Errorf("fig4+fig5+fig8 planned %d simulations, want 14", len(sims))
	}
	if n := len(reads[0]) + len(reads[1]) + len(reads[2]); n != 38 {
		t.Errorf("fig4+fig5+fig8 read %d cells, want 38", n)
	}

	sims, reads = plan(o, experimentsByID(t, "fig4", "fig9"))
	if len(sims) != 2*(5+20-2) {
		t.Errorf("fig4+fig9 planned %d simulations, want %d", len(sims), 2*(5+20-2))
	}
	w16, w16at64 := reads[0][[2]string{"gzip", "W16"}], reads[1][[2]string{"gzip", "W16@64KB"}]
	if w16 != w16at64 || w16 != [2]string{"gzip", "W16"} {
		t.Errorf("fig4's W16 reads %v and fig9's W16@64KB reads %v, want both gzip/W16", w16, w16at64)
	}
	for _, c := range sims {
		if c.bench == "gzip" && c.key == "W16" && (c.exp != "fig4" || !slices.Equal(c.aliases, []string{"W16@64KB"})) {
			t.Errorf("gzip/W16 named by %s with aliases %v, want fig4 and [W16@64KB]", c.exp, c.aliases)
		}
	}
}

// TestJournalOfOneExperimentReplaysAnother pins the content-hash resume
// index: a journal written by Fig 4 alone replays the five cells Fig 8
// shares with it, under Fig 8's own keys, and Fig 8 renders as it does
// without the journal.
func TestJournalOfOneExperimentReplaysAnother(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	base := Options{Warmup: 1_000, Measure: 4_000, Benchmarks: []string{"gzip"}}
	path := filepath.Join(t.TempDir(), "fig4.wal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Journal = w
	if _, err := mustByID(t, "fig4").Run(o); err != nil {
		t.Fatal(err)
	}
	w.Close()
	res, err := LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}

	want, err := mustByID(t, "fig8").Run(base)
	if err != nil {
		t.Fatal(err)
	}
	o = base
	o.Resume = res
	got, err := mustByID(t, "fig8").Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed.Load() != 5 || res.Mismatched.Load() != 0 {
		t.Errorf("fig8 replayed %d cells (%d mismatched) from fig4's journal, want 5 (0)",
			res.Replayed.Load(), res.Mismatched.Load())
	}
	if got.String() != want.String() {
		t.Errorf("resumed fig8:\n%s\nwant:\n%s", got, want)
	}
}
