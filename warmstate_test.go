package pfe

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
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

// refWarm is the per-instruction warming kernel that the run kernel
// replaced, kept as the reference the run kernel must match. It drives a
// warm set's structures: it decodes the tape in blocks with ReadBlock,
// walks every hierarchy instruction by instruction, and trains every
// prediction loop on a lookahead of per-instruction records, splitting
// each fragment with Split and matching the predicted one PC by PC.
type refWarm struct {
	set  *warmSet // its hierarchies and loops; its run buffer goes unused
	look [256 + frag.AbsMaxLen]frag.Dyn
	ea   [256]uint64
	end  int
	off  []int // each loop's anchor in look
}

func newRefWarm(rd *artifact.Reader, p *program.Program, machines []Machine) *refWarm {
	s := newWarmSet(rd, p, machines)
	return &refWarm{set: s, off: make([]int, len(s.loops))}
}

func (w *refWarm) warmTo(upto uint64) error {
	rd := w.set.rd
	for rd.Pos() < upto && !rd.Halted() {
		if len(w.look)-w.end < len(w.ea) {
			w.compact()
		}
		k := min(upto-rd.Pos(), uint64(len(w.ea)))
		n, err := rd.ReadBlock(w.look[w.end:w.end+int(k)], w.ea[:k])
		if err != nil {
			return err
		}
		for _, h := range w.set.hiers {
			refWalk(h, w.look[w.end:w.end+n], w.ea[:n])
		}
		w.end += n
		for i, l := range w.set.loops {
			for w.end-w.off[i] >= frag.AbsMaxLen {
				w.off[i] += refTrain(l, w.look[w.off[i]:w.end])
			}
		}
	}
	return nil
}

func (w *refWarm) compact() {
	lo := w.end
	for _, o := range w.off {
		lo = min(lo, o)
	}
	w.end = copy(w.look[:], w.look[lo:w.end])
	for i := range w.off {
		w.off[i] -= lo
	}
}

func (w *refWarm) resync() {
	w.end = 0
	clear(w.off)
}

func refWalk(h *warmHier, dyn []frag.Dyn, ea []uint64) {
	for i := range dyn {
		d := &dyn[i]
		if blk := d.PC & h.iblkMask; blk != h.lastIBlk {
			h.hier.L1I.Access(d.PC, false, 0)
			h.lastIBlk = blk
		}
		if d.Inst.IsMem() {
			h.hier.L1D.Access(ea[i], d.Inst.IsStore(), 0)
		}
	}
}

func refTrain(l *warmLoop, look []frag.Dyn) int {
	trueLen, trueID := l.frags.Heuristics().Split(look)
	pred := l.pred.PredictUpdate(&l.hist, trueID)
	id := frag.ID{StartPC: look[0].PC}
	if pred.Valid && pred.ID.StartPC == look[0].PC {
		id = pred.ID
	}
	f := l.frags.Get(id)
	m := 0
	for m < f.Len() && look[m].PC == f.PCs[m] {
		m++
	}
	l.hist.Push(trueID.Key())
	if f.Len() > 0 {
		for _, w := range l.los {
			w.lo.Train(f.ID, f.LiveOuts)
		}
		for _, w := range l.tcs {
			w.tc.Fill(f)
		}
	}
	if m == f.Len() && f.ID == trueID {
		return trueLen
	}
	return max(m, 1)
}

// TestWarmRunKernelMatchesReference warms every suite program, and the
// halting test program, with the run kernel and with the per-instruction
// reference. After every gap the two must agree on the reader's position,
// the L1I cursors, the histories and every cache and predictor counter, and
// after the last one they must hold identical hierarchies, predictors,
// live-out predictors and trace caches. The
// roster is Fig 8's and Fig 9's (six hierarchies) plus machines under the
// {32,16} and {8,4} heuristics, so three prediction loops run side by side.
// The gaps end at boundaries that are mostly not run edges, a skipped window
// and a resync follow most of them, one gap continues without a resync, and
// the last gap reads past the truncated recording into the live fallback
// (or, for the test program, through its halt).
func TestWarmRunKernelMatchesReference(t *testing.T) {
	var roster []Machine
	for _, fe := range []FrontEnd{W16, TC, TC2x, PF2x8w, PF4x4w, PR2x8w, PR4x4w} {
		roster = append(roster, Preset(fe))
	}
	for _, fe := range []FrontEnd{W16, TC, PR2x8w, PR4x4w} {
		for _, kb := range []int{8, 16, 32, 64, 128} {
			roster = append(roster, Preset(fe).WithTotalL1I(kb))
		}
	}
	roster = append(roster,
		Preset(PR2x8w).WithFragmentHeuristics(32, 16),
		Preset(TC).WithFragmentHeuristics(8, 4),
		Preset(PR4x4w).WithFragmentHeuristics(8, 4))

	specs := []program.Spec{program.TestSpec()}
	for _, name := range program.SuiteNames() {
		spec, err := program.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	const recorded = 30_000
	// Each phase warms to upto and then skips window instructions and
	// resyncs (a window of 0: neither). Both are in thousandths of the
	// recording, plus 3 so that they are not round.
	phases := []struct{ upto, window uint64 }{{400, 60}, {620, 0}, {720, 40}, {999, 1}, {1220, 0}}
	for _, spec := range specs {
		p, err := program.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := artifact.Record(p, recorded)
		if err != nil {
			t.Fatal(err)
		}
		run := newWarmSet(tape.NewReader(), p, roster)
		ref := newRefWarm(tape.NewReader(), p, roster)
		if len(run.hiers) != 6 || len(run.loops) != 3 {
			t.Fatalf("roster trains %d hierarchies and %d loops, want 6 and 3", len(run.hiers), len(run.loops))
		}
		for i, ph := range phases {
			upto := tape.Len()*ph.upto/1000 + 3
			where := fmt.Sprintf("%s, gap %d to %d", p.Name, i, upto)
			if err := run.warmTo(upto); err != nil {
				t.Fatalf("%s: run kernel: %v", where, err)
			}
			if err := ref.warmTo(upto); err != nil {
				t.Fatalf("%s: reference: %v", where, err)
			}
			sameWarmState(t, where, run, ref.set, i == len(phases)-1)
			if ph.window > 0 && !run.rd.Halted() {
				for _, rd := range []*artifact.Reader{run.rd, ref.set.rd} {
					if err := rd.Seek(rd.Pos() + tape.Len()*ph.window/1000 + 3); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				run.resync()
				ref.resync()
			}
		}
	}
}

// sameWarmState fails the test unless the two sets, built from one roster,
// agree on their positions, cursors, histories and counters, and, when full
// is set, hold equal structures (the tables' reflective comparison is most
// of the test's time).
func sameWarmState(t *testing.T, where string, got, want *warmSet, full bool) {
	t.Helper()
	if got.rd.Pos() != want.rd.Pos() || got.rd.Halted() != want.rd.Halted() {
		t.Fatalf("%s: reader at %d (halted %v), reference at %d (halted %v)",
			where, got.rd.Pos(), got.rd.Halted(), want.rd.Pos(), want.rd.Halted())
	}
	for i, h := range got.hiers {
		w := want.hiers[i]
		if h.lastIBlk != w.lastIBlk {
			t.Fatalf("%s: hierarchy %d's L1I cursor %#x, reference %#x", where, i, h.lastIBlk, w.lastIBlk)
		}
		for _, c := range [][2]*mem.Cache{{h.hier.L1I, w.hier.L1I}, {h.hier.L1D, w.hier.L1D}, {h.hier.L2, w.hier.L2}} {
			if c[0].Accesses() != c[1].Accesses() || c[0].Misses() != c[1].Misses() {
				t.Fatalf("%s: hierarchy %d's %s: %d accesses, %d misses; reference %d, %d",
					where, i, c[0].Name(), c[0].Accesses(), c[0].Misses(), c[1].Accesses(), c[1].Misses())
			}
		}
		if full && !reflect.DeepEqual(h.hier, w.hier) {
			t.Fatalf("%s: hierarchy %d differs from the reference's", where, i)
		}
	}
	for i, l := range got.loops {
		w := want.loops[i]
		if l.hist != w.hist {
			t.Fatalf("%s: loop %d's history differs from the reference's", where, i)
		}
		p1, c1, s1 := l.pred.Stats()
		p2, c2, s2 := w.pred.Stats()
		if p1 != p2 || c1 != c2 || s1 != s2 {
			t.Fatalf("%s: loop %d's predictor counts %d, %d, %d; reference %d, %d, %d", where, i, p1, c1, s1, p2, c2, s2)
		}
		for j := range l.tcs {
			l1, h1, f1 := l.tcs[j].tc.Stats()
			l2, h2, f2 := w.tcs[j].tc.Stats()
			if l1 != l2 || h1 != h2 || f1 != f2 {
				t.Fatalf("%s: loop %d's trace cache %d counts %d, %d, %d; reference %d, %d, %d", where, i, j, l1, h1, f1, l2, h2, f2)
			}
		}
		if !full {
			continue
		}
		if !reflect.DeepEqual(l.pred, w.pred) {
			t.Fatalf("%s: loop %d's predictor differs from the reference's", where, i)
		}
		for j := range l.los {
			if !reflect.DeepEqual(l.los[j].lo, w.los[j].lo) {
				t.Fatalf("%s: loop %d's live-out predictor %d differs from the reference's", where, i, j)
			}
		}
		for j := range l.tcs {
			if !reflect.DeepEqual(l.tcs[j].tc, w.tcs[j].tc) {
				t.Fatalf("%s: loop %d's trace cache %d differs from the reference's", where, i, j)
			}
		}
	}
}

// BenchmarkFunctionalWarming times the warming kernel alone over a fixed
// 1M-instruction gcc prefix replayed from a recorded tape, in ns per warmed
// instruction: "union" trains Fig 8's seven-machine roster in one replay
// (four warm classes over two hierarchies and one prediction loop), "solo"
// one PR-2x8w, as a union build for a single-class roster does. "gap" warms
// one PR-2x8w through 49 gaps of 15,000 instructions, each followed by a
// 5,000-instruction window it skips with a seek and a resync, as a
// sampled-warm cell's gap warming does. Building the warm state's tables and
// the seeks are outside the timed region.
func BenchmarkFunctionalWarming(b *testing.B) {
	const (
		prefix = 1_000_000
		gaps   = 49
		gap    = 15_000
		window = 5_000
	)
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
	b.Run("gap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rd := tape.NewReader()
			set := newWarmSet(rd, p, []Machine{Preset(PR2x8w)})
			for range gaps {
				b.StartTimer()
				if err := set.warmTo(rd.Pos() + gap); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := rd.Seek(rd.Pos() + window); err != nil {
					b.Fatal(err)
				}
				set.resync()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(gaps*gap), "ns/inst")
	})
}
