package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
)

// neverCommitConfig builds a synthetic livelocked machine: the back-end's
// commit width is zero, so the window fills and nothing ever retires. The
// watchdog is the only thing that can end this run.
func neverCommitConfig(threshold uint64, flight int) Config {
	be := backend.DefaultConfig()
	be.CommitWidth = 0
	return Config{
		FrontEnd:         feConfig("W16", core.FetchSequential, core.RenameSequential),
		Backend:          be,
		Mem:              mem.DefaultHierarchyConfig(),
		WarmupInsts:      1_000,
		MeasureInsts:     10_000,
		NoProgressCycles: threshold,
		FlightRecorder:   flight,
	}
}

func TestWatchdogTripsOnNeverCommittingConfig(t *testing.T) {
	const threshold = 500
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, neverCommitConfig(threshold, 256))
	if err != nil {
		t.Fatal(err)
	}
	steps := uint64(0)
	for s.Step() {
		steps++
		if steps > 10*threshold {
			t.Fatalf("watchdog did not trip within %d cycles", 10*threshold)
		}
	}
	_, err = s.Result()
	if err == nil {
		t.Fatal("expected a stall error from a never-committing run")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error %v (%T) is not a *StallError", err, err)
	}
	if stall.Reason != "no-progress" {
		t.Errorf("reason = %q, want no-progress", stall.Reason)
	}
	// The trip must come within one threshold of the last progress (which
	// never happened, so within threshold+1 cycles of the start).
	if steps > threshold+1 {
		t.Errorf("tripped after %d steps, want <= threshold+1 = %d", steps, threshold+1)
	}
	if stall.Diag == nil {
		t.Fatal("stall error carries no diagnostic")
	}
	if stall.Diag.Committed != 0 {
		t.Errorf("diag.Committed = %d, want 0 (commit width is zero)", stall.Diag.Committed)
	}
	if stall.Diag.Window == 0 {
		t.Error("diag.Window = 0, want a full window behind a stuck commit head")
	}
}

// TestWatchdogDumpGoldenHeader pins the readable dump's header: field names
// and order are a stable contract (ops tooling greps them), values are
// cross-checked against the diagnostic struct.
func TestWatchdogDumpGoldenHeader(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, neverCommitConfig(300, 64))
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected *StallError, got %v", err)
	}
	d := stall.Diag
	var b strings.Builder
	if err := d.Render(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	lines := strings.Split(dump, "\n")

	want := []string{
		fmt.Sprintf("pfe stall diagnostic v%d", DiagVersion),
		"reason: no-progress",
		"config: W16",
		"bench: tiny",
		fmt.Sprintf("cycle: %d", d.Cycle),
		"committed: 0",
		fmt.Sprintf("window-occupancy: %d", d.Window),
		fmt.Sprintf("frag-buffers-in-use: %d", d.BuffersInUse),
		fmt.Sprintf("frontend-drained: %v", d.Drained),
		fmt.Sprintf("pending-redirect: %s", d.Pending),
	}
	if len(lines) < len(want) {
		t.Fatalf("dump too short (%d lines):\n%s", len(lines), dump)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("dump line %d = %q, want %q", i, lines[i], w)
		}
	}
	// The remaining header fields exist with the right keys.
	for _, key := range []string{"backend-head: ", "fetched: ", "renamed: ", "redirects: ",
		"frag-pred: ", "flight-recorder: "} {
		if !strings.Contains(dump, "\n"+key) {
			t.Errorf("dump missing header field %q", key)
		}
	}
	// Flight recorder captured events and the dump includes them.
	if len(d.Events) == 0 {
		t.Fatal("flight recorder retained no events")
	}
	if !strings.Contains(dump, "--- last events (oldest first) ---") {
		t.Error("dump missing flight-recorder event section")
	}
	// 64-capacity ring on a fetch-heavy run: the tail must end close to
	// the trip cycle, i.e. the ring really did keep the *last* events.
	last := d.Events[len(d.Events)-1]
	if last.Cycle > d.Cycle {
		t.Errorf("last event cycle %d is after the trip cycle %d", last.Cycle, d.Cycle)
	}
}

// TestMaxCyclesProducesStallDiagnostic covers the watchdog's other trigger:
// exhausting the cycle budget also yields a StallError with a bundle.
func TestMaxCyclesProducesStallDiagnostic(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(feConfig("W16", core.FetchSequential, core.RenameSequential))
	cfg.MaxCycles = 50 // far below what the budget needs
	cfg.FlightRecorder = 32
	_, err = Run(p, cfg)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected *StallError, got %v", err)
	}
	if stall.Reason != "max-cycles" {
		t.Errorf("reason = %q, want max-cycles", stall.Reason)
	}
	if stall.Diag == nil || stall.Diag.Cycle < 50 {
		t.Errorf("diag missing or cycle %v < MaxCycles", stall.Diag)
	}
}
