package pfe

import (
	"context"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/shard"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// runSliced is the time-parallel run mode: the measured stream is cut into
// K contiguous tape-indexed slices, each simulated independently (its own
// reader, its own machine state) on the shared work-stealing pool, with an
// overlapped warmup region reconstructing warm caches and predictors at the
// slice boundary. Seam reconciliation keeps the aggregate exact where it can
// be: an interior slice's commit count is trimmed to its quota (the
// overshoot instructions — the commit width's worth past the quota — are
// re-measured by the next slice, so totals match the serial run exactly),
// while cycle counts simply sum, leaving a bounded seam error from the
// overlap's imperfect warmup. Slice results combine by index, so a sliced
// run is bit-identical across worker counts; K=1 degenerates to the exact
// serial run.
func runSliced(pspec program.Spec, p *program.Program, tape *artifact.Tape, m Machine, opts RunOptions) (*Result, error) {
	total, err := measuredSpan(tape, opts)
	if err != nil {
		return nil, err
	}
	k := opts.Slices
	if int64(k) > total {
		k = int(total) // never hand a slice an empty quota
	}
	w0 := opts.WarmupInsts
	quota, rem := total/int64(k), total%int64(k)

	type out struct {
		res *sim.Result
		err error
	}
	outs := make([]out, k)
	infos := make([]SliceInfo, k)
	workers := opts.SliceWorkers
	if workers <= 0 {
		workers = k
	}
	shard.RunHooked(context.Background(), k, workers, shard.Hooks{}, func(worker, j int) {
		mj := quota
		if int64(j) < rem {
			mj++
		}
		// Measurement start: warmup plus the quotas of the slices before
		// this one (the first rem slices carry the remainder).
		sj := w0 + int64(j)*quota + min64(int64(j), rem)
		warm := w0
		if j > 0 {
			if opts.SliceWarmup > 0 {
				warm = opts.SliceWarmup
			}
			if warm > sj {
				warm = sj
			}
		}
		ss := opts.Spans.Phase(opts.SpanParent, "slice")
		ss.Int("slice", int64(j))
		ss.Int("slice_worker", int64(worker))
		ss.Int("start_inst", sj)
		defer ss.End()
		rd := tape.NewReader()
		cfg := sim.Config{
			FrontEnd:         m.frontEnd,
			Backend:          m.backend,
			Mem:              m.memory,
			WarmupInsts:      warm,
			MeasureInsts:     mj,
			Obs:              opts.Obs,
			NoProgressCycles: opts.NoProgressCycles,
			FlightRecorder:   opts.FlightRecorder,
			Oracle:           rd,
		}
		if j > 0 {
			// Functionally warm a private hierarchy and the machine's
			// trained front-end structures (fragment predictor, live-out
			// predictor, trace cache) through the whole skipped prefix —
			// their contents reach back much further than the overlapped
			// detailed warmup — leaving the reader exactly at the
			// detailed-warmup boundary. Slice 0 (and so K=1) builds
			// everything inside the simulator, keeping the serial path
			// untouched. Each slice's warm set, fragment memo included,
			// is its own: slices run concurrently.
			sw := ss.Child(span.KindPhase, "slice-warm")
			sw.Int("warm_insts", sj-warm)
			wm := newWarmSet(rd, p, []Machine{m})
			// Through the artifact cache: a boundary another cell already
			// reached is copied from its warm pack instead of replaying
			// the whole prefix.
			info, err := warmThrough(wm, pspec, m, uint64(sj-warm), opts)
			annotArtifact(sw, info)
			if err != nil {
				sw.End()
				ss.Str("error", firstLine(err.Error()))
				outs[j] = out{err: fmt.Errorf("pfe: slice %d warming: %w", j, err)}
				return
			}
			sw.End()
			wm.config(&cfg)
		}
		if k == 1 {
			// A single slice is the serial run; per-run sinks that would
			// race across concurrent slices are safe to attach.
			cfg.Trace = opts.Trace
			cfg.TraceCycles = opts.TraceCycles
			cfg.Events = opts.Events
			cfg.SelfProfile = opts.SelfProfile
		}
		sr := ss.Child(span.KindPhase, "slice-sim")
		r, err := runDetailed(p, cfg)
		if err != nil {
			sr.Str("error", firstLine(err.Error()))
			sr.End()
			outs[j] = out{err: fmt.Errorf("pfe: slice %d at %d: %w", j, sj, err)}
			return
		}
		sr.Int("cycles", int64(r.Cycles))
		sr.End()
		info := SliceInfo{
			Index:        j,
			StartInst:    sj,
			WarmupInsts:  warm,
			MeasureInsts: mj,
			Committed:    r.Committed,
			Cycles:       r.Cycles,
			WarmupCycles: r.WarmupCycles,
		}
		if j < k-1 && r.Committed > mj {
			// Seam reconciliation: commits past the quota are the next
			// slice's instructions (it re-measures them), so trim them
			// here — the aggregate commit count stays exact.
			info.Overshoot = r.Committed - mj
			r.Committed = mj
			info.Committed = mj
		}
		ss.Int("overshoot", info.Overshoot)
		if r.Cycles > 0 {
			info.IPC = float64(r.Committed) / float64(r.Cycles)
		}
		outs[j] = out{res: r}
		infos[j] = info
	})

	parts := make([]*sim.Result, k)
	for j, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		parts[j] = o.res
	}
	res := newResult(aggregateSim(parts))
	res.Slices = infos
	if opts.Obs != nil {
		opts.Obs.Slices.Add(int64(k))
		var seamCycles, seamTrimmed int64
		for j := range infos {
			if j > 0 {
				// Interior slices' warmup cycles are pure seam-reconcile
				// overhead: the serial run simulates that region once.
				seamCycles += int64(infos[j].WarmupCycles)
			}
			seamTrimmed += infos[j].Overshoot
		}
		opts.Obs.SliceSeamCycles.Add(seamCycles)
		opts.Obs.SliceSeamInsts.Add(seamTrimmed)
	}
	return res, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
