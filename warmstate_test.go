package pfe

import (
	"reflect"
	"sync"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/program"
)

// warmStateOpts is a sampled plan whose first-window boundary clears
// warmStateMinInsts, so the run builds (or copies from) a warm pack whenever
// an artifact cache is attached.
func warmStateOpts() RunOptions {
	return RunOptions{
		WarmupInsts:  300_000,
		MeasureInsts: 40_000,
		Sample:       &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_000},
	}
}

// TestWarmStateSampledBitIdentical is the warm-state determinism guarantee
// for sampled runs: a cell that copies the functionally warmed front-end
// state from a cached warm pack is bit-identical to the cell that replayed
// the whole prefix. Covers a plain machine and one with every optional
// trained structure (live-out predictor and trace cache).
func TestWarmStateSampledBitIdentical(t *testing.T) {
	for _, fe := range []FrontEnd{W16, TCPR2x8w} {
		fe := fe
		t.Run(string(fe), func(t *testing.T) {
			m := Preset(fe)
			opts := warmStateOpts()
			baseline, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}

			cold := artifact.New(0)
			opts.Artifacts = cold
			built, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, built) {
				t.Fatalf("pack-building run diverged from plain run:\n plain: %+v\n built: %+v", baseline, built)
			}
			if s := cold.Stats(); s.WarmMisses != 1 || s.WarmHits != 0 {
				t.Fatalf("cold run warm traffic: %d hits / %d misses, want 0 / 1", s.WarmHits, s.WarmMisses)
			}

			// Same process, same cache: copies from the cached pack.
			mem, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, mem) {
				t.Fatal("pack-copying run diverged from plain run")
			}
			if s := cold.Stats(); s.WarmHits != 1 {
				t.Fatalf("warm hits = %d after re-run, want 1", s.WarmHits)
			}
		})
	}
}

// TestWarmStateSharedAcrossWidths pins the class hash's point: machines
// differing only in width / parallelism (not in any warm-relevant structure)
// share one warm pack, so a width sweep warms each benchmark once.
func TestWarmStateSharedAcrossWidths(t *testing.T) {
	cache := artifact.New(0)
	opts := warmStateOpts()
	opts.Artifacts = cache
	if _, err := Run("gzip", Preset(PR2x8w), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("gzip", Preset(PR4x4w), opts); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.WarmMisses != 1 || s.WarmHits != 1 {
		t.Fatalf("warm traffic across widths: %d hits / %d misses, want 1 / 1 (shared pack)", s.WarmHits, s.WarmMisses)
	}
	// A warm-relevant change (different predictor tables via a different
	// fetch engine) must NOT share.
	if _, err := Run("gzip", Preset(TC), opts); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.WarmMisses != 2 {
		t.Fatalf("warm misses = %d after trace-cache machine, want 2 (distinct class)", s.WarmMisses)
	}
	// The fetch engine kind alone is not warm-relevant: a sequential-fetch
	// W16 and a parallel-fetch PF2x8w — neither trains a live-out predictor
	// or a trace cache — share one class.
	if _, err := Run("gzip", Preset(W16), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("gzip", Preset(PF2x8w), opts); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.WarmMisses != 3 || s.WarmHits != 2 {
		t.Fatalf("warm traffic across fetch kinds: %d hits / %d misses, want 2 / 3", s.WarmHits, s.WarmMisses)
	}
}

// TestWarmStateUnionWarming pins union (matrix) warming: with the sweep
// roster attached, the first cell to reach the boundary replays the prefix
// once, training every distinct warm class side by side, and every other
// cell of the sweep copies from its pack — one warm miss for the whole
// grid. The cells run concurrently, as a sweep's do, so they read the one
// cached pack at the same time (run it under -race). Results stay
// bit-identical to solo runs, and the union-built structures equal the ones
// solo warming builds.
func TestWarmStateUnionWarming(t *testing.T) {
	fes := []FrontEnd{W16, TC, TC2x, PF2x8w, PF4x4w, PR2x8w, PR4x4w}
	roster := make([]Machine, len(fes))
	for i, fe := range fes {
		roster[i] = Preset(fe)
	}

	// Solo baselines: no artifacts at all.
	base := make([]*Result, len(fes))
	for i, fe := range fes {
		r, err := Run("gzip", Preset(fe), warmStateOpts())
		if err != nil {
			t.Fatal(err)
		}
		base[i] = r
	}

	opts := warmStateOpts()
	opts.Artifacts = artifact.New(0)
	opts.WarmRoster = roster
	got := make([]*Result, len(fes))
	errs := make([]error, len(fes))
	var wg sync.WaitGroup
	for i, fe := range fes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run("gzip", Preset(fe), opts)
		}()
	}
	wg.Wait()
	for i, fe := range fes {
		if errs[i] != nil {
			t.Fatalf("%s: %v", fe, errs[i])
		}
		if !reflect.DeepEqual(base[i], got[i]) {
			t.Fatalf("%s: union-warmed run diverged from solo run", fe)
		}
	}
	// 7 cells, 4 warm classes ({W16,PF*}, {TC}, {TC2x}, {PR*}) — the first
	// cell's union build covers all of them; every other cell waits for it
	// or finds it built, and both count as hits.
	if s := opts.Artifacts.Stats(); s.WarmMisses != 1 || s.WarmHits != 6 {
		t.Fatalf("union warm traffic: %d hits / %d misses, want 6 / 1", s.WarmHits, s.WarmMisses)
	}

	// Equality of a sibling class: solo-warm the trace-cache class in its
	// own cache and compare its structures with the union pack's. Both
	// packs are read back from the caches that built them; a build here
	// means a run left no pack.
	solo := warmStateOpts()
	solo.Artifacts = artifact.New(0)
	if _, err := Run("gzip", Preset(TC), solo); err != nil {
		t.Fatal(err)
	}
	spec, err := program.SpecByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	boundary := uint64(solo.WarmupInsts - solo.Sample.Warmup)
	class := warmClassHash(Preset(TC))
	cachedMember := func(c *artifact.Cache, machines []Machine) (*warmMember, uint64) {
		t.Helper()
		v, _, err := c.WarmStateInfo(warmPackKey(spec, warmClasses(machines), boundary), func() (any, int64, error) {
			t.Fatal("run left no warm pack in its cache")
			return nil, 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pack := v.(*warmPack)
		for i := range pack.members {
			if pack.members[i].class == class {
				return &pack.members[i], pack.pos
			}
		}
		t.Fatalf("pack holds no %s class", TC)
		return nil, 0
	}
	want, wantPos := cachedMember(solo.Artifacts, []Machine{Preset(TC)})
	union, unionPos := cachedMember(opts.Artifacts, roster)
	if unionPos != wantPos || wantPos != boundary {
		t.Fatalf("union pack stopped at %d, solo pack at %d, boundary %d", unionPos, wantPos, boundary)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"hierarchy", union.hier.hier, want.hier.hier},
		{"L1I cursor", union.hier.lastIBlk, want.hier.lastIBlk},
		{"predictor", union.loop.pred, want.loop.pred},
		{"history", union.loop.hist, want.loop.hist},
		{"trace cache", union.tc, want.tc},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("union-built %s differs from the solo-built one", c.what)
		}
	}
}

// BenchmarkFunctionalWarming times the warming kernel alone over a fixed
// 1M-instruction gcc prefix replayed from a recorded tape, in ns per warmed
// instruction: "union" trains Fig 8's seven-machine roster in one replay
// (four warm classes over two hierarchies and one prediction loop), "solo"
// one PR-2x8w, as a sampled cell's gap warming does. Building the warm
// state's tables is outside the timed region.
func BenchmarkFunctionalWarming(b *testing.B) {
	const prefix = 1_000_000
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	tape, err := artifact.Record(p, prefix)
	if err != nil {
		b.Fatal(err)
	}
	var fig8 []Machine
	for _, fe := range []FrontEnd{W16, TC, TC2x, PF2x8w, PF4x4w, PR2x8w, PR4x4w} {
		fig8 = append(fig8, Preset(fe))
	}
	for _, c := range []struct {
		name     string
		machines []Machine
	}{{"union", fig8}, {"solo", []Machine{Preset(PR2x8w)}}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set := newWarmSet(tape.NewReader(), p, c.machines)
				b.StartTimer()
				if err := set.warmTo(prefix); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/prefix, "ns/inst")
		})
	}
}
