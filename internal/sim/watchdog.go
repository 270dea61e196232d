package sim

import (
	"fmt"
	"io"
	"os"

	"github.com/parallel-frontend/pfe/internal/trace"
)

// DefaultNoProgressCycles is the forward-progress watchdog threshold used
// when Config.NoProgressCycles is zero: a run that commits nothing for this
// many consecutive cycles is declared stalled.
const DefaultNoProgressCycles = 200_000

// DiagVersion versions the stall-diagnostic dump header so tooling (and the
// golden tests) can detect format changes.
const DiagVersion = 1

// Diag is the diagnostic bundle captured when the forward-progress watchdog
// trips (deadlock / livelock / MaxCycles): enough machine state to explain
// *why* the pipeline stopped, without re-running the cell under a debugger.
type Diag struct {
	Reason    string // "no-progress" or "max-cycles"
	Config    string // front-end configuration name
	Bench     string // benchmark name
	Cycle     uint64 // cycle the watchdog tripped on
	Committed int64  // instructions committed so far (warmup included)

	// Per-stage occupancy at the moment of the trip.
	Window       int    // back-end window entries in flight
	BuffersInUse int    // fragment buffers currently allocated (parallel fetch)
	Drained      bool   // front-end had no unrenamed ops queued
	BackendHead  string // oldest in-flight op (the likely blocker)
	Pending      string // pending stream redirect, or "none"

	// Front-end progress counters (whole run).
	Fetched, Renamed, Redirects int64

	// Fragment predictor state: predictions generated and correct over the
	// whole run.
	FragPredGenerated, FragPredCorrect int64

	// Flight recorder contents: the last events retained by the ring
	// (oldest first), plus lifetime totals.
	Events        []trace.Event
	EventsTotal   uint64
	EventsDropped uint64
}

// Render writes the diagnostic as a readable dump: a fixed "key: value"
// header (stable field names, golden-checked by tests) followed by the
// flight-recorder tail.
func (d *Diag) Render(w io.Writer) error {
	fmt.Fprintf(w, "pfe stall diagnostic v%d\n", DiagVersion)
	fmt.Fprintf(w, "reason: %s\n", d.Reason)
	fmt.Fprintf(w, "config: %s\n", d.Config)
	fmt.Fprintf(w, "bench: %s\n", d.Bench)
	fmt.Fprintf(w, "cycle: %d\n", d.Cycle)
	fmt.Fprintf(w, "committed: %d\n", d.Committed)
	fmt.Fprintf(w, "window-occupancy: %d\n", d.Window)
	fmt.Fprintf(w, "frag-buffers-in-use: %d\n", d.BuffersInUse)
	fmt.Fprintf(w, "frontend-drained: %v\n", d.Drained)
	fmt.Fprintf(w, "pending-redirect: %s\n", d.Pending)
	fmt.Fprintf(w, "backend-head: %s\n", d.BackendHead)
	fmt.Fprintf(w, "fetched: %d\n", d.Fetched)
	fmt.Fprintf(w, "renamed: %d\n", d.Renamed)
	fmt.Fprintf(w, "redirects: %d\n", d.Redirects)
	fmt.Fprintf(w, "frag-pred: %d/%d correct\n", d.FragPredCorrect, d.FragPredGenerated)
	fmt.Fprintf(w, "flight-recorder: %d retained / %d total (%d dropped)\n",
		len(d.Events), d.EventsTotal, d.EventsDropped)
	if len(d.Events) > 0 {
		fmt.Fprintf(w, "--- last events (oldest first) ---\n")
		if err := trace.WriteText(w, d.Events); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the dump to path (mode 0644).
func (d *Diag) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StallError is the error a run ends with when the forward-progress
// watchdog trips. It wraps the one-line description the harness logs and
// carries the full diagnostic bundle for callers that want to dump it
// (errors.As(&stall) from any layer above).
type StallError struct {
	Reason string // "no-progress" or "max-cycles"
	Diag   *Diag
	msg    string
}

// Error returns the one-line description.
func (e *StallError) Error() string { return e.msg }

// stall captures the diagnostic bundle for the current machine state and
// wraps it in a StallError.
func (s *Sim) stall(reason, msg string) *StallError {
	d := &Diag{
		Reason:      reason,
		Config:      s.cfg.FrontEnd.Name,
		Bench:       s.p.Name,
		Cycle:       s.now,
		Committed:   s.be.Committed(),
		Window:      s.be.InFlight(),
		Drained:     s.fe.Drained(),
		BackendHead: s.be.DebugHead(),
		Pending:     "none",
	}
	if pend := s.stream.Pending(); pend != nil {
		d.Pending = fmt.Sprintf("culprit=%d", pend.CulpritSeq)
	}
	if pool := s.fe.Pool(); pool != nil {
		d.BuffersInUse = pool.InUseCount()
	}
	st := s.fe.Stats()
	d.Fetched, d.Renamed, d.Redirects = st.Fetched, st.Renamed, st.Redirects
	d.FragPredGenerated, d.FragPredCorrect = s.stream.Accuracy()
	if s.ring != nil {
		d.Events = s.ring.Tail(s.ring.Cap())
		d.EventsTotal = s.ring.Total()
		d.EventsDropped = s.ring.Dropped()
	}
	return &StallError{Reason: reason, Diag: d, msg: msg}
}
