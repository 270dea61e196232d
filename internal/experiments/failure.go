package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
// replay), fail (retries exhausted), or neither (never claimed — the sweep
// was cancelled first).
type cellOutcome struct {
	r    *pfe.Result
	fail *obs.CellFailure
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
	// Acceleration modes change the result, so they extend the
	// fingerprint — but only when in use, keeping every exact-mode hash
	// (and therefore existing journals) stable.
	if ro.Sample != nil {
		fmt.Fprintf(h, "|sample:%d/%d/%d", ro.Sample.Unit, ro.Sample.Period, ro.Sample.Warmup)
	}
	if ro.Slices > 0 {
		fmt.Fprintf(h, "|slices:%d/%d", ro.Slices, ro.SliceWarmup)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runCell drives one cell to a terminal outcome: resume replay if the
// journal already has it, otherwise up to 1+MaxRetries attempts behind a
// recover barrier, with exponential backoff between attempts. Success is
// journaled (fsynced) before it is observable; exhaustion produces a
// structured failure, writing the watchdog diagnostic bundle to DumpDir
// when the error carries one.
//
// batch, worker, and idx scope the cell's span (batch may come from a nil
// tracer, in which case every span call is a free no-op): the cell span
// carries the memo/resume short-circuits, retry causes and backoff, and
// watchdog dump paths as typed annotations, with attempt spans nested under
// it and the run's phase spans under those.
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
		if v, info, ok := o.Artifacts.GetResultInfo(hash); ok {
			r := v.(*pfe.Result)
			// Keep the established "memo-hit" annotation for in-process
			// hits; a result inherited from the persistent store is marked
			// distinctly so warm-run provenance is traceable per cell.
			if info.Source == "disk-hit" {
				cs.Str("source", "memo-disk-hit")
			} else {
				cs.Str("source", "memo-hit")
			}
			o.journalCell(cs, newCellRecord(o.ExperimentID, c, hash, 0, r))
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

	var lastErr error
	var lastPanic bool
	var lastStack string
	attempts := 0
	for attempt := 1; attempt <= o.MaxRetries+1; attempt++ {
		if ctx.Err() != nil {
			break
		}
		attempts = attempt
		cellStart := time.Now()
		as := cs.Child(span.KindAttempt, "attempt")
		as.Int("attempt", int64(attempt))
		rc := ro
		rc.SpanParent = as.ID()
		r, err, panicked, stack := safeRun(c, rc, inject)
		if err == nil {
			as.End()
			if memoize {
				o.Artifacts.PutResult(hash, r, memoResultBytes)
			}
			// Journal before reporting: a record exists for every cell
			// an observer (and thus a report) has seen complete.
			o.journalCell(cs, newCellRecord(o.ExperimentID, c, hash, attempt, r))
			if attempt > 1 {
				cs.Int("retries", int64(attempt-1))
			}
			if o.Observer != nil {
				o.Observer.Completed(c.bench, c.key, time.Since(cellStart), r)
			}
			return cellOutcome{r: r}
		}
		as.Str("cause", failureCause(err, panicked))
		as.Str("error", firstLine(err.Error()))
		as.End()
		lastErr, lastPanic, lastStack = err, panicked, stack
		if attempt <= o.MaxRetries {
			if o.Sim != nil {
				o.Sim.CellRetries.Inc()
			}
			bs := cs.Child(span.KindPhase, "retry-backoff")
			sleepBackoff(ctx, o.RetryBackoff, attempt)
			bs.End()
		}
	}
	if lastErr == nil {
		// Cancelled before the first attempt: not a failure, just unrun.
		return cellOutcome{}
	}
	f := &obs.CellFailure{
		Experiment: o.ExperimentID,
		Bench:      c.bench,
		Key:        c.key,
		Attempts:   attempts,
		Error:      lastErr.Error(),
		Panic:      lastPanic,
		Stack:      lastStack,
	}
	cs.Str("outcome", "failed")
	cs.Int("attempts", int64(attempts))
	var stall *sim.StallError
	if errors.As(lastErr, &stall) && stall.Diag != nil {
		cs.Str("cause", "watchdog-stall")
		path := o.dumpPath(c)
		if werr := stall.Diag.WriteFile(path); werr == nil {
			f.DumpPath = path
			cs.Str("stall_dump", path)
		}
	}
	if o.Sim != nil {
		o.Sim.CellFailures.Inc()
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

// failureCause classifies an attempt error for span annotation.
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

// safeRun executes one attempt behind a recover barrier, converting a panic
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

// sleepBackoff waits base<<(attempt-1), capped at 5s, or until ctx is
// cancelled. base 0 means the 100ms default; negative disables the wait.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) {
	if base < 0 {
		return
	}
	if base == 0 {
		base = 100 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > 5*time.Second || d <= 0 {
		d = 5 * time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
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
