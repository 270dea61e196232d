package pfe

import (
	"strings"
	"testing"
	"time"
)

func TestWorkloadValidate(t *testing.T) {
	w := ExampleWorkload()
	if err := w.Validate(); err != nil {
		t.Fatalf("example workload invalid: %v", err)
	}
	w.Name = ""
	if err := w.Validate(); err == nil {
		t.Error("nameless workload accepted")
	}
	w = ExampleWorkload()
	w.HeapKB = 1
	if err := w.Validate(); err == nil {
		t.Error("tiny heap accepted")
	}
}

func TestRunWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	w := ExampleWorkload()
	r, err := RunWorkload(w, Preset(PR2x8w), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Bench != "example" || r.Config != "PR-2x8w" {
		t.Errorf("labels: %s/%s", r.Config, r.Bench)
	}
	if r.IPC <= 0 {
		t.Errorf("IPC %v", r.IPC)
	}
}

func TestAPILevelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	a, err := Run("gzip", Preset(TC), Quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("gzip", Preset(TC), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Cycles != b.Cycles {
		t.Errorf("nondeterministic API runs: %v vs %v", a, b)
	}
}

func TestMachineOptions(t *testing.T) {
	m := Preset(TC).WithTotalL1I(16)
	// 16 KB total splits 8/8 for a trace-cache config.
	if m.frontEnd.TraceCache != 8<<10 || m.memory.L1I.SizeBytes != 8<<10 {
		t.Errorf("TC split: tc=%d l1i=%d", m.frontEnd.TraceCache, m.memory.L1I.SizeBytes)
	}
	m = Preset(W16).WithTotalL1I(16)
	if m.memory.L1I.SizeBytes != 16<<10 {
		t.Errorf("W16 L1I = %d", m.memory.L1I.SizeBytes)
	}
	m = Preset(PR2x8w).WithPredictorEntries(8192)
	if m.frontEnd.Predictor.PrimaryEntries != 8192 || m.frontEnd.Predictor.SecondaryEntries != 2048 {
		t.Errorf("predictor sizing: %+v", m.frontEnd.Predictor)
	}
	m = Preset(PR2x8w).WithLiveOutPredictor(1024, 4)
	if m.frontEnd.LiveOut.Entries != 1024 || m.frontEnd.LiveOut.Ways != 4 {
		t.Errorf("live-out sizing: %+v", m.frontEnd.LiveOut)
	}
	m = Preset(PF2x8w).WithSwitchOnMiss()
	if !m.frontEnd.SwitchOnMiss {
		t.Error("switch-on-miss not set")
	}
	m = Preset(PR2x8w).WithFragmentHeuristics(32, 16)
	if m.frontEnd.FragHeuristics.MaxLen != 32 {
		t.Errorf("heuristics: %+v", m.frontEnd.FragHeuristics)
	}
}

// TestTinyPredictorTablesComplete: predictor sizes up to 4 entries give a
// 1-entry secondary table (and, below 2, a 1-entry primary), indexed by a
// zero-bit history fold; the simulation must still finish. The zero-width
// fold once looped forever, so each run has its own deadline and a
// regression fails here instead of stalling the whole test binary.
func TestTinyPredictorTablesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, n := range []int{1, 4} {
		done := make(chan error, 1)
		var r *Result
		go func() {
			var err error
			r, err = Run("gzip", Preset(W16).WithPredictorEntries(n), Quick())
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%d-entry predictor: %v", n, err)
			}
			if r.IPC <= 0 {
				t.Errorf("%d-entry predictor: IPC %v", n, r.IPC)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%d-entry predictor: simulation did not finish within a minute", n)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		fe   FrontEnd
		seq  int
		wide int
	}{
		{PF2x8w, 2, 8}, {PF4x4w, 4, 4}, {PR2x8w, 2, 8}, {PR4x4w, 4, 4},
		{PRD2x8w, 2, 8}, {PRD4x4w, 4, 4},
	}
	for _, c := range cases {
		m := Preset(c.fe)
		if m.frontEnd.Sequencers != c.seq || m.frontEnd.SeqWidth != c.wide {
			t.Errorf("%s: %dx%d", c.fe, m.frontEnd.Sequencers, m.frontEnd.SeqWidth)
		}
	}
	// Aggregate width is 16 everywhere.
	for _, fe := range AllFrontEnds() {
		m := Preset(fe)
		if m.frontEnd.FetchWidth != 16 {
			t.Errorf("%s: fetch width %d", fe, m.frontEnd.FetchWidth)
		}
	}
}

func TestPresetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown front-end must panic")
		}
	}()
	Preset(FrontEnd("bogus"))
}

func TestResultString(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r, err := Run("mcf", Preset(W16), Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"W16", "mcf", "IPC"} {
		if !strings.Contains(s, want) {
			t.Errorf("result string missing %q: %s", want, s)
		}
	}
}
