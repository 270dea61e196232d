package core

import (
	"fmt"
	"testing"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
)

// newUnitRig assembles a complete front-end + back-end over a real program,
// without the sim package: the cycle loop lives in the test so Unit-level
// behaviour (redirect truncation, drain, barrier maintenance) is directly
// observable.
type unitRig struct {
	unit   *Unit
	be     *backend.Backend
	stream *Stream
}

func newUnitRig(t *testing.T, cfg Config) *unitRig {
	t.Helper()
	spec := program.TestSpec()
	spec.PhaseIters = 100
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	stream := NewStream(p, bpred.New(bpred.Config{PrimaryEntries: 4096, SecondaryEntries: 1024}), frag.Heuristics{}, nil)
	be := backend.New(backend.DefaultConfig(), hier.L1D)
	ic := &ICache{L1I: hier.L1I, Banks: hier.IBanks}
	unit, err := NewUnit(cfg, stream, ic, be)
	if err != nil {
		t.Fatal(err)
	}
	return &unitRig{unit: unit, be: be, stream: stream}
}

// runCycles advances the rig like the simulator would.
func (r *unitRig) runCycles(t *testing.T, n uint64) {
	t.Helper()
	for now := uint64(0); now < n; now++ {
		r.unit.Cycle(now)
		_, res := r.be.Cycle(now)
		if res != nil {
			pend := r.stream.Pending()
			if pend != nil && res.Op.Seq == pend.CulpritSeq {
				red := r.stream.ApplyRedirect()
				r.be.SquashFrom(red.CulpritSeq + 1)
				r.be.ClearMispredictPoint(res.Op)
				r.unit.Redirect(now, red.CulpritSeq)
			} else {
				r.be.ClearMispredictPoint(res.Op)
			}
		}
	}
}

func pfConfig() Config {
	return Config{
		Name: "unit-PF", Fetch: FetchParallel, Rename: RenameSequential,
		FetchWidth: 16, RenameWidth: 16, FragBuffers: 16,
		Sequencers: 2, SeqWidth: 8,
		Predictor:      bpred.Config{PrimaryEntries: 4096, SecondaryEntries: 1024},
		LiveOut:        rename.DefaultLiveOutConfig(),
		RedirectBubble: 3,
	}
}

func TestUnitProgressAndRedirects(t *testing.T) {
	rig := newUnitRig(t, pfConfig())
	rig.runCycles(t, 4000)
	st := rig.unit.Stats()
	if rig.be.Committed() < 1000 {
		t.Errorf("committed only %d in 4000 cycles", rig.be.Committed())
	}
	if st.Redirects == 0 {
		t.Error("expected redirects on the test program")
	}
	if st.FragAllocs == 0 || st.Fetched == 0 || st.Renamed == 0 {
		t.Errorf("dead counters: %+v", st)
	}
}

func TestUnitRedirectTruncatesAndRecovers(t *testing.T) {
	rig := newUnitRig(t, pfConfig())
	// Run until at least one redirect has happened, checking queue
	// consistency after every cycle.
	sawRedirect := false
	for now := uint64(0); now < 6000 && !sawRedirect; now++ {
		rig.unit.Cycle(now)
		_, res := rig.be.Cycle(now)
		if res != nil {
			pend := rig.stream.Pending()
			if pend != nil && res.Op.Seq == pend.CulpritSeq {
				red := rig.stream.ApplyRedirect()
				rig.be.SquashFrom(red.CulpritSeq + 1)
				rig.be.ClearMispredictPoint(res.Op)
				rig.unit.Redirect(now, red.CulpritSeq)
				sawRedirect = true
				// Post-redirect: every remaining fragment must be
				// entirely at or below the culprit.
				for i := 0; i < rig.unit.queue.size(); i++ {
					fs := rig.unit.queue.at(i)
					last := fs.ff.Ops[fs.len()-1].Seq
					if last > red.CulpritSeq {
						t.Fatalf("fragment with seq %d survived redirect at %d", last, red.CulpritSeq)
					}
				}
			} else {
				rig.be.ClearMispredictPoint(res.Op)
			}
		}
	}
	if !sawRedirect {
		t.Fatal("no redirect observed")
	}
	// The machine must keep making progress afterwards.
	before := rig.be.Committed()
	rig.runCycles(t, 2000)
	if rig.be.Committed() <= before {
		t.Error("no progress after redirect")
	}
}

func TestUnitDrainsOnProgramEnd(t *testing.T) {
	cfg := pfConfig()
	rig := newUnitRig(t, cfg)
	for now := uint64(0); now < 200_000; now++ {
		rig.unit.Cycle(now)
		_, res := rig.be.Cycle(now)
		if res != nil {
			pend := rig.stream.Pending()
			if pend != nil && res.Op.Seq == pend.CulpritSeq {
				red := rig.stream.ApplyRedirect()
				rig.be.SquashFrom(red.CulpritSeq + 1)
				rig.be.ClearMispredictPoint(res.Op)
				rig.unit.Redirect(now, red.CulpritSeq)
			} else {
				rig.be.ClearMispredictPoint(res.Op)
			}
		}
		if rig.stream.Done() && rig.unit.Drained() && rig.be.InFlight() == 0 {
			return // clean drain
		}
	}
	t.Fatalf("program did not drain: done=%v drained=%v inflight=%d",
		rig.stream.Done(), rig.unit.Drained(), rig.be.InFlight())
}

func TestUnitConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "no-width", Fetch: FetchSequential, Rename: RenameSequential},
		{Name: "pf-no-seq", Fetch: FetchParallel, Rename: RenameSequential, FetchWidth: 16, RenameWidth: 16},
		{Name: "tc-no-size", Fetch: FetchTraceCache, Rename: RenameSequential, FetchWidth: 16, RenameWidth: 16},
		{Name: "pr-no-renamers", Fetch: FetchParallel, Rename: RenameParallel, FetchWidth: 16,
			Sequencers: 2, SeqWidth: 8, FragBuffers: 16},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", cfg.Name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if FetchSequential.String() != "sequential" || FetchTraceCache.String() != "trace-cache" ||
		FetchParallel.String() != "parallel" {
		t.Error("fetch kind names wrong")
	}
	if RenameSequential.String() != "sequential" || RenameParallel.String() != "parallel" ||
		RenameDelayed.String() != "delayed" {
		t.Error("rename kind names wrong")
	}
	if FetchKind(99).String() == "" || RenameKind(99).String() == "" {
		t.Error("out-of-range kinds must still render")
	}
}

func TestUnitTCFetchEngine(t *testing.T) {
	cfg := Config{
		Name: "unit-TC", Fetch: FetchTraceCache, Rename: RenameSequential,
		FetchWidth: 16, RenameWidth: 16, TraceCache: 32 << 10,
		Predictor:      bpred.Config{PrimaryEntries: 4096, SecondaryEntries: 1024},
		RedirectBubble: 3,
	}
	rig := newUnitRig(t, cfg)
	rig.runCycles(t, 4000)
	tc := rig.unit.TraceCache()
	if tc == nil {
		t.Fatal("no trace cache on a TC front-end")
	}
	lookups, hits, fills := tc.Stats()
	if lookups == 0 || fills == 0 {
		t.Errorf("trace cache unused: lookups=%d hits=%d fills=%d", lookups, hits, fills)
	}
	if rig.unit.Pool() != nil {
		t.Error("TC front-end must not have a fragment pool")
	}
}

func TestUnitSwitchOnMiss(t *testing.T) {
	cfg := pfConfig()
	cfg.SwitchOnMiss = true
	rig := newUnitRig(t, cfg)
	rig.runCycles(t, 4000)
	if rig.be.Committed() < 1000 {
		t.Errorf("switch-on-miss unit committed only %d", rig.be.Committed())
	}
}

// TestUnitFlagsCulpritAlreadyInWindow: a divergence at a fragment's first
// instruction makes the previous fragment's last op the mispredict point,
// and that op may already be in the window, even issued. The Unit must
// announce the flag to the back-end, which then resolves the op like any
// other culprit, and the machine recovers onto the true path. The true path
// never diverges at offset 0 on its own (a true-path fragment starts at the
// oracle's PC), so the test plants, under the id the stream is about to
// predict, a fragment that starts one instruction late.
func TestUnitFlagsCulpritAlreadyInWindow(t *testing.T) {
	rig := newUnitRig(t, pfConfig())
	s := rig.stream
	oracle := emu.New(s.prog)
	var mismatch error
	rig.be.CommitHook = func(op *backend.Op) {
		d, err := oracle.Step()
		if mismatch == nil && (err != nil || d.PC != op.PC) {
			mismatch = fmt.Errorf("commit of seq %d at %#x, oracle %#x (%v)", op.Seq, op.PC, d.PC, err)
		}
	}
	var culprit *backend.Op
	resolvedAt := uint64(0)
	for now := uint64(0); now < 20_000 && (resolvedAt == 0 || now < resolvedAt+2000); now++ {
		prev := s.prevLastOp
		var id frag.ID
		var saved *frag.Fragment
		var had, planted bool
		oldest, any := rig.be.OldestSeq()
		if culprit == nil && s.onTrue && s.pending == nil && prev != nil && prev.Issued() && any && oldest <= prev.Seq {
			d, ok := s.oracleAt(s.trueCursor)
			if _, code := s.prog.InstAt(d.PC + isa.InstBytes); ok && code {
				id = frag.ID{StartPC: d.PC}
				if p := s.pred.Predict(&s.specHist); p.Valid && p.ID.StartPC == d.PC {
					id = p.ID
				}
				saved, had = s.fragMemo[id]
				s.fragMemo[id] = s.heur.FromCode(s.prog, frag.ID{StartPC: d.PC + isa.InstBytes})
				planted = true
			}
		}
		rig.unit.Cycle(now)
		if planted {
			if had {
				s.fragMemo[id] = saved
			} else {
				delete(s.fragMemo, id)
			}
			if pend := s.Pending(); pend != nil && pend.Culprit == prev {
				culprit = prev
			}
		}
		_, res := rig.be.Cycle(now)
		if res == nil {
			continue
		}
		if res.Op == culprit && resolvedAt == 0 {
			resolvedAt = now
		}
		if pend := s.Pending(); pend != nil && res.Op.Seq == pend.CulpritSeq {
			red := s.ApplyRedirect()
			rig.be.SquashFrom(red.CulpritSeq + 1)
			rig.be.ClearMispredictPoint(res.Op)
			rig.unit.Redirect(now, red.CulpritSeq)
		} else {
			rig.be.ClearMispredictPoint(res.Op)
		}
	}
	switch {
	case culprit == nil:
		t.Fatal("no divergence flagged an issued op in the window")
	case resolvedAt == 0:
		t.Fatalf("culprit seq %d never resolved; window head: %s", culprit.Seq, rig.be.DebugHead())
	case mismatch != nil:
		t.Fatal(mismatch)
	}
	if before := rig.be.Committed(); before < 1000 {
		t.Errorf("committed only %d", before)
	}
}
