package pfe

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/program"
)

// warmStateOpts is a sampled plan whose first-window boundary clears
// warmStateMinInsts, so the run snapshots (or restores) warm state whenever
// an artifact cache is attached.
func warmStateOpts() RunOptions {
	return RunOptions{
		WarmupInsts:  300_000,
		MeasureInsts: 40_000,
		Sample:       &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_000},
	}
}

// TestWarmStateSampledBitIdentical is the warm-state determinism guarantee
// for sampled runs: a cell that restores the functionally warmed front-end
// state from a cached snapshot is bit-identical to the cell that replayed
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
				t.Fatalf("snapshot-building run diverged from plain run:\n plain: %+v\n built: %+v", baseline, built)
			}
			if s := cold.Stats(); s.WarmMisses != 1 || s.WarmHits != 0 {
				t.Fatalf("cold run warm traffic: %d hits / %d misses, want 0 / 1", s.WarmHits, s.WarmMisses)
			}

			// Same process, same cache: restores from memory.
			mem, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, mem) {
				t.Fatal("memory-restored run diverged from plain run")
			}
			if s := cold.Stats(); s.WarmHits != 1 {
				t.Fatalf("warm hits = %d after re-run, want 1", s.WarmHits)
			}
		})
	}
}

// TestWarmStateSharedAcrossWidths pins the class hash's point: machines
// differing only in width / parallelism (not in any warm-relevant structure)
// share one snapshot, so a width sweep warms each benchmark once.
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
		t.Fatalf("warm traffic across widths: %d hits / %d misses, want 1 / 1 (shared snapshot)", s.WarmHits, s.WarmMisses)
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
// once, training every distinct warm class side by side, and every later
// cell of the sweep restores — one warm miss for the whole grid. Results
// stay bit-identical to solo runs, and the union-built snapshots are
// byte-for-byte the snapshots solo warming writes.
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
	for i, fe := range fes {
		got, err := Run("gzip", Preset(fe), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base[i], got) {
			t.Fatalf("%s: union-warmed run diverged from solo run", fe)
		}
	}
	// 7 cells, 4 warm classes ({W16,PF*}, {TC}, {TC2x}, {PR*}) — the first
	// cell's union build covers all of them, every other cell restores.
	if s := opts.Artifacts.Stats(); s.WarmMisses != 1 || s.WarmHits != 6 {
		t.Fatalf("union warm traffic: %d hits / %d misses, want 6 / 1", s.WarmHits, s.WarmMisses)
	}

	// Byte-identity of a sibling snapshot: solo-warm the trace-cache class
	// in its own cache and compare blobs. Both packs are read back from the
	// caches that built them; a build here means a run left no pack.
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
	cachedPack := func(c *artifact.Cache, machines []Machine) []byte {
		t.Helper()
		pack, _, err := c.WarmStateInfo(warmPackKey(spec, warmClasses(machines), boundary), func() ([]byte, error) {
			t.Fatal("run left no warm pack in its cache")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pack
	}
	soloPack := cachedPack(solo.Artifacts, []Machine{Preset(TC)})
	unionPack := cachedPack(opts.Artifacts, roster)
	want, err := warmPackSection(soloPack, class)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := warmPackSection(unionPack, class)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, gotBytes) {
		t.Fatalf("union-built snapshot differs from solo-built snapshot (%d vs %d bytes)", len(gotBytes), len(want))
	}
}

// TestWarmStateSlicedBitIdentical is the same guarantee for time-parallel
// runs: interior slices restoring their boundary snapshots produce the
// exact result of slices that replayed their prefixes.
func TestWarmStateSlicedBitIdentical(t *testing.T) {
	m := Preset(PR2x8w)
	opts := RunOptions{WarmupInsts: 20_000, MeasureInsts: 1_600_000, Slices: 3}
	baseline, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := artifact.New(0)
	opts.Artifacts = cache
	built, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, built) {
		t.Fatal("snapshot-building sliced run diverged from plain run")
	}
	if s := cache.Stats(); s.WarmMisses != 2 {
		t.Fatalf("warm misses = %d, want 2 (one per interior slice past the gate)", s.WarmMisses)
	}

	// Same cache: every interior slice restores its snapshot from memory.
	restored, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, restored) {
		t.Fatal("memory-restored sliced run diverged from plain run")
	}
	if s := cache.Stats(); s.WarmMisses != 2 || s.WarmHits != 2 {
		t.Fatalf("warm traffic after re-run: %d hits / %d misses, want 2 / 2", s.WarmHits, s.WarmMisses)
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
