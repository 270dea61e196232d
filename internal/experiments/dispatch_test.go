package experiments

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
)

// TestDispatchExactlyOnce checks the dispatch loop's core contract under
// contention: every position runs exactly once, whatever the worker count,
// and the per-worker Ran counts account for all of them. Run with -race this
// also exercises the shared index.
func TestDispatchExactlyOnce(t *testing.T) {
	const n = 5000
	counts := make([]atomic.Int32, n)
	for _, workers := range []int{1, 3, 8, 64} {
		for i := range counts {
			counts[i].Store(0)
		}
		stats := dispatch(context.Background(), n, workers, func(_, i int) { counts[i].Add(1) })
		if len(stats) != workers {
			t.Fatalf("workers=%d: %d worker stats", workers, len(stats))
		}
		total := 0
		for _, s := range stats {
			total += s.Ran
		}
		if total != n {
			t.Errorf("workers=%d: workers report %d tasks ran, want %d", workers, total, n)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times, want exactly once", workers, i, c)
			}
		}
	}
}

// TestDispatchBounds covers the degenerate shapes: no tasks, more workers
// than tasks (clamped so no worker starts with nothing to claim), and
// non-positive worker counts (clamped to serial).
func TestDispatchBounds(t *testing.T) {
	if stats := dispatch(context.Background(), 0, 4, func(int, int) { t.Error("ran a task of zero") }); stats != nil {
		t.Errorf("n=0: stats = %v, want nil", stats)
	}
	var ran atomic.Int32
	stats := dispatch(context.Background(), 3, 100, func(int, int) { ran.Add(1) })
	if len(stats) != 3 || ran.Load() != 3 {
		t.Errorf("n=3 workers=100: %d workers, %d runs; want 3 and 3", len(stats), ran.Load())
	}
	for _, workers := range []int{0, -5} {
		ran.Store(0)
		stats := dispatch(context.Background(), 4, workers, func(int, int) { ran.Add(1) })
		if len(stats) != 1 || stats[0].Ran != 4 || ran.Load() != 4 {
			t.Errorf("workers=%d: stats %v, %d runs; want one serial worker of 4", workers, stats, ran.Load())
		}
	}
}

// TestDispatchKeepsWorkersBusyUnderSkew puts four slow tasks ahead of four
// fast ones, a 25x duration skew, on two workers. No worker may idle while
// an unclaimed task remains: both workers run tasks, each works until the
// last task has started, and the batch ends well before the slow tasks'
// serial time. Sleeps are reliable lower bounds, so the wall-clock
// assertions hold even on a noisy host as long as the margins stay
// generous.
func TestDispatchKeepsWorkersBusyUnderSkew(t *testing.T) {
	const slow = 25 * time.Millisecond
	var ran [8]atomic.Int32
	var started [8]time.Duration // per task; each written by its own run
	var lastEnd [2]time.Duration // per worker; each written by its worker
	start := time.Now()
	stats := dispatch(context.Background(), len(ran), 2, func(w, i int) {
		started[i] = time.Since(start)
		ran[i].Add(1)
		if i < 4 {
			time.Sleep(slow)
		} else {
			time.Sleep(time.Millisecond)
		}
		lastEnd[w] = time.Since(start)
	})
	elapsed := time.Since(start)
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", i, c)
		}
	}
	for w, s := range stats {
		if s.Ran == 0 {
			t.Errorf("worker %d ran no task while the other ran %d", w, len(ran))
		}
	}
	lastStart := slices.Max(started[:])
	for w, end := range lastEnd {
		if end < lastStart-slow/2 {
			t.Errorf("worker %d stopped at %v, but a task started at %v: it idled while work remained", w, end, lastStart)
		}
	}
	if serial := 4 * slow; elapsed >= serial {
		t.Errorf("batch took %v, not faster than the slow tasks' serial %v: a worker idled", elapsed, serial)
	}
}

// TestRunCellsLeadersFirst pins runCells' dispatch order on a Fig 8-shaped
// list (3 benchmarks x 7 presets): each benchmark's first cell runs first
// (cells 0, 7 and 14), then every other cell in cell order. One worker runs
// the cells one at a time, so the order the cells run in is the dispatch
// order. Fig 8 planned alone is that list, cell for cell, so a single
// experiment dispatches in that order, with the seven presets as its warm
// roster.
func TestRunCellsLeadersFirst(t *testing.T) {
	fes := []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.TC2x, pfe.PF2x8w, pfe.PF4x4w, pfe.PR2x8w, pfe.PR4x4w}
	var mu sync.Mutex
	var got []int
	var cells []cell
	for _, b := range []string{"gcc", "gzip", "crafty"} {
		for _, fe := range fes {
			i := len(cells)
			cells = append(cells, cell{bench: b, machine: pfe.Preset(fe), key: string(fe),
				run: func() (*pfe.Result, error) {
					mu.Lock()
					got = append(got, i)
					mu.Unlock()
					return &pfe.Result{Bench: b, Config: string(fe), IPC: 1}, nil
				}})
		}
	}
	if _, err := runCells(Options{Workers: 1}, cells); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 7, 14}
	for i := range cells {
		if i%len(fes) != 0 {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cells ran in order %v, want %v", got, want)
	}
	seen := make([]bool, len(cells))
	for _, i := range got {
		if seen[i] {
			t.Fatalf("cell %d ran twice", i)
		}
		seen[i] = true
	}

	o := Options{Benchmarks: []string{"gcc", "gzip", "crafty"}}
	sims, _ := plan(o, []Experiment{mustByID(t, "fig8")})
	if len(sims) != len(cells) {
		t.Fatalf("fig8 planned %d cells, want %d", len(sims), len(cells))
	}
	for i := range sims {
		if sims[i].bench != cells[i].bench || sims[i].key != cells[i].key ||
			simHash(sims[i].bench, sims[i].machine, o.runOpts()) != simHash(cells[i].bench, cells[i].machine, o.runOpts()) {
			t.Fatalf("fig8's cell %d is %s/%s, want %s/%s", i, sims[i].bench, sims[i].key, cells[i].bench, cells[i].key)
		}
	}
	if order := leadersFirst(sims); !slices.Equal(order, want) {
		t.Errorf("fig8 dispatches in order %v, want %v", order, want)
	}
	roster := warmRosterOf(sims)
	if len(roster) != len(fes) {
		t.Fatalf("fig8's warm roster has %d machines, want %d", len(roster), len(fes))
	}
	for i, fe := range fes {
		if roster[i] != pfe.Preset(fe) {
			t.Errorf("fig8's warm roster[%d] = %s, want %s", i, roster[i].Name(), fe)
		}
	}
}

// TestRunCellsMatchesDirectRuns pins runCells' index dispatch: the result
// stored under each (bench, key) must be identical to running exactly that
// cell's machine directly with the hoisted run options. This is the
// regression guard for the old per-goroutine copies of cell and option
// structs, which could silently drift from the cells slice.
func TestRunCellsMatchesDirectRuns(t *testing.T) {
	cells := []cell{
		{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "W16"},
		{bench: "gzip", machine: pfe.Preset(pfe.PR2x8w), key: "PR-2x8w"},
		{bench: "mcf", machine: pfe.Preset(pfe.W16), key: "W16"},
		{bench: "gcc", machine: pfe.Preset(pfe.PR2x8w), key: "PR-2x8w"},
	}
	o := Options{Warmup: 2_000, Measure: 8_000, Workers: len(cells)}
	got, err := runCells(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	ro := o.runOpts()
	for _, c := range cells {
		want, err := pfe.Run(c.bench, c.machine, ro)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.bench, c.key, err)
		}
		r := got[[2]string{c.bench, c.key}]
		if r == nil {
			t.Fatalf("no result for %s/%s", c.bench, c.key)
		}
		if r.IPC != want.IPC || r.Cycles != want.Cycles || r.Committed != want.Committed {
			t.Errorf("%s/%s: dispatched run diverged from direct run: IPC %.4f vs %.4f, cycles %d vs %d",
				c.bench, c.key, r.IPC, want.IPC, r.Cycles, want.Cycles)
		}
	}
}
