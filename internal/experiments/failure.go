package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// FailureLog is a concurrency-safe collector of per-cell failure records,
// shared across every experiment of a pfe-bench run so the final report can
// list all of them.
type FailureLog struct {
	mu    sync.Mutex
	fails []obs.CellFailure
}

func (l *FailureLog) add(f obs.CellFailure) {
	l.mu.Lock()
	l.fails = append(l.fails, f)
	l.mu.Unlock()
}

// All returns a copy of the collected failures in arrival order.
func (l *FailureLog) All() []obs.CellFailure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.CellFailure(nil), l.fails...)
}

// Len reports how many failures have been collected.
func (l *FailureLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fails)
}

// cellOutcome is one cell's terminal state: exactly one of r (success or
// replay), fail (the run failed), or neither (never run — the sweep was
// cancelled first).
type cellOutcome struct {
	r    *pfe.Result
	fail *obs.CellFailure
}

// failedResult is the placeholder a failed cell leaves in a sweep's results:
// marked Failed, with every float64 metric NaN, so that every number derived
// from it (a speedup over it, a ratio to it, a mean over its column) is NaN
// too and prints as FAIL (stats.Num).
func failedResult(bench, config string) *pfe.Result {
	nan := math.NaN()
	return &pfe.Result{
		Bench: bench, Config: config, Failed: true,
		IPC: nan, FetchSlotUtilization: nan, FetchRate: nan, RenameRate: nan,
		FragPredAccuracy: nan, L1IMissRate: nan, L1DMissRate: nan, TCHitRate: nan,
		BufferReuseRate: nan, FragsConstructedEarly: nan,
		RenamedBeforeSourceFrac: nan, SampledIPC: nan,
	}
}

// memoResultBytes is the accounted footprint of one memoized *pfe.Result
// in the artifact cache: the scalar fields plus the three pipeline
// histograms it references (a conservative flat estimate — results are tiny
// next to tapes, the cap exists for tapes and program images).
const memoResultBytes = 4096

// cellHash fingerprints everything that determines a cell's result: bench,
// config key, instruction budgets, and the full machine configuration
// (simulation is deterministic in these). Resume uses it to cross-check
// that a journaled result was produced by the same configuration before
// replaying it.
func cellHash(c *cell, ro pfe.RunOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%+v", c.bench, c.key, ro.WarmupInsts, ro.MeasureInsts, c.machine)
	// Sampling changes the result, so it extends the fingerprint — but
	// only when in use, keeping every exact-mode hash (and therefore
	// existing journals) stable.
	if ro.Sample != nil {
		fmt.Fprintf(h, "|sample:%d/%d/%d", ro.Sample.Unit, ro.Sample.Period, ro.Sample.Warmup)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runCell drives one cell to a terminal outcome: resume replay if the
// journal already has it, otherwise one run behind a recover barrier. A cell
// is a pure function of its config hash, so it runs once: a second run would
// fail the same way. Success is journaled (fsynced) before it is observable;
// a failure becomes a structured record, with the watchdog diagnostic bundle
// written to DumpDir when the error carries one.
//
// batch, worker, and idx scope the cell's span (batch may come from a nil
// tracer, in which case every span call is a free no-op): the cell span
// carries the memo/resume short-circuits, a failure's cause and error, and
// watchdog dump paths as typed annotations, with the run's phase spans under
// it.
func (o Options) runCell(ctx context.Context, c *cell, ro pfe.RunOptions, batch span.Batch, worker, idx int) cellOutcome {
	hash := cellHash(c, ro)
	cs := batch.StartCell(idx, c.bench, c.key, worker)
	defer cs.End()
	cs.Str("cell_hash", hash)
	if o.Resume != nil {
		if r, ok := o.Resume.lookup(o.ExperimentID, c.bench, c.key, hash); ok {
			cs.Str("source", "resume-replay")
			if o.Observer != nil {
				o.Observer.Completed(c.bench, c.key, 0, r)
			}
			return cellOutcome{r: r}
		}
	}
	inject := o.Inject[c.bench+"/"+c.key]
	// Result memoization: the simulation is a pure function of everything
	// cellHash covers, so an identical cell completed earlier in this run
	// (e.g. by a previous experiment sharing the config grid) is served
	// as-is. Skipped for injected faults and test-hook cells, whose outcome
	// is not a function of the hash. Memoized completions are journaled like
	// fresh ones so a resumed run replays them under this experiment too.
	memoize := o.Artifacts != nil && c.run == nil && inject == ""
	if memoize {
		if v, ok := o.Artifacts.GetResult(hash); ok {
			r := v.(*pfe.Result)
			cs.Str("source", "memo-hit")
			o.journalCell(cs, newCellRecord(o.ExperimentID, c, hash, r))
			if o.Observer != nil {
				o.Observer.Completed(c.bench, c.key, 0, r)
			}
			return cellOutcome{r: r}
		}
	}
	if inject == "stall" {
		// Trip the forward-progress watchdog deterministically: a
		// threshold shorter than the pipeline fill depth means no cell can
		// commit before the watchdog fires.
		ro.NoProgressCycles = 2
		if ro.FlightRecorder == 0 {
			ro.FlightRecorder = 256
		}
	}
	if ctx.Err() != nil {
		// Cancelled before the run: not a failure, just unrun.
		return cellOutcome{}
	}

	cellStart := time.Now()
	ro.SpanParent = cs.ID()
	r, err, panicked, stack := safeRun(c, ro, inject)
	if err == nil {
		if memoize {
			o.Artifacts.PutResult(hash, r, memoResultBytes)
		}
		// Journal before reporting: a record exists for every cell an
		// observer (and thus a report) has seen complete.
		o.journalCell(cs, newCellRecord(o.ExperimentID, c, hash, r))
		if o.Observer != nil {
			o.Observer.Completed(c.bench, c.key, time.Since(cellStart), r)
		}
		return cellOutcome{r: r}
	}
	f := &obs.CellFailure{
		Experiment: o.ExperimentID,
		Bench:      c.bench,
		Key:        c.key,
		Error:      err.Error(),
		Panic:      panicked,
		Stack:      stack,
	}
	cs.Str("outcome", "failed")
	cs.Str("cause", failureCause(err, panicked))
	cs.Str("error", firstLine(err.Error()))
	var stall *sim.StallError
	if errors.As(err, &stall) && stall.Diag != nil {
		path := o.dumpPath(c)
		if werr := stall.Diag.WriteFile(path); werr == nil {
			f.DumpPath = path
			cs.Str("stall_dump", path)
		}
	}
	if fo, ok := o.Observer.(FailureObserver); ok {
		fo.Failed(c.bench, c.key)
	}
	if o.Failures != nil {
		o.Failures.add(*f)
	}
	return cellOutcome{fail: f}
}

// journalCell appends a completed-cell record to the crash-safe journal (a
// no-op without one), wrapped in a phase span so fsync stalls are visible in
// the sweep timeline.
func (o Options) journalCell(cs span.Span, rec any) {
	if o.Journal == nil {
		return
	}
	js := cs.Child(span.KindPhase, "journal-append")
	o.Journal.Append(rec)
	js.End()
}

// failureCause classifies a cell's error for span annotation.
func failureCause(err error, panicked bool) string {
	if panicked {
		return "panic"
	}
	var stall *sim.StallError
	if errors.As(err, &stall) {
		return "watchdog-stall"
	}
	return "error"
}

// firstLine truncates a (possibly multi-line) error message for annotation.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// safeRun runs one cell behind a recover barrier, converting a panic
// anywhere in the simulator stack into an error plus the goroutine stack at
// the point of the panic.
func safeRun(c *cell, ro pfe.RunOptions, inject string) (r *pfe.Result, err error, panicked bool, stack string) {
	defer func() {
		if rec := recover(); rec != nil {
			r = nil
			err = fmt.Errorf("panic: %v", rec)
			panicked = true
			stack = string(debug.Stack())
		}
	}()
	switch inject {
	case "panic":
		panic("injected cell fault (-inject mode panic)")
	case "error":
		return nil, errors.New("injected cell fault (-inject mode error)"), false, ""
	case "", "stall":
		// stall is applied by the caller (watchdog threshold); run normally.
	default:
		// An unknown mode must fail the cell loudly, never run it clean: a
		// typo in -inject would otherwise silently pass the fault drill it
		// was meant to perform.
		return nil, fmt.Errorf("experiments: unknown inject mode %q", inject), false, ""
	}
	if c.run != nil {
		r, err = c.run()
	} else {
		r, err = pfe.Run(c.bench, c.machine, ro)
	}
	return r, err, false, ""
}

// ParseInject parses the -inject spec: comma-separated cell faults
//
//	bench/key=mode          mode: panic | error | stall
//
// Unknown modes are errors — a typo must not silently skip the fault drill
// it was meant to run.
func ParseInject(s string) (map[string]string, error) {
	cells := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		target, mode, ok := strings.Cut(part, "=")
		if !ok || !strings.Contains(target, "/") {
			return nil, fmt.Errorf("-inject %q: want bench/key=mode", part)
		}
		switch mode {
		case "panic", "error", "stall":
		default:
			return nil, fmt.Errorf("-inject %q: mode must be panic, error or stall", part)
		}
		cells[target] = mode
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("-inject %q: no injections parsed", s)
	}
	return cells, nil
}

// dumpPath names a stall diagnostic file uniquely per cell within DumpDir
// (or the OS temp dir).
func (o Options) dumpPath(c *cell) string {
	dir := o.DumpDir
	if dir == "" {
		dir = os.TempDir()
	}
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
				return r
			default:
				return '_'
			}
		}, s)
	}
	name := fmt.Sprintf("pfe-stall-%s-%s-%s.txt", clean(o.ExperimentID), clean(c.bench), clean(c.key))
	return filepath.Join(dir, name)
}
