package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildTrace makes a small two-cell sweep with phases on distinct workers.
func buildTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := New()
	b := tr.StartBatch("fig8", 2)

	c0 := b.StartCell(0, "gzip", "PF-4x4w", 0)
	pb := c0.Child(KindPhase, "program-build")
	pb.Str("artifact", "miss")
	pb.End()
	sim := c0.Child(KindPhase, "sim")
	sim.Int("cycles", 4000)
	sim.End()
	c0.End()

	c1 := b.StartCell(1, "mcf", "TR-16x4w", 1)
	tb := c1.Child(KindPhase, "tape-build")
	tb.Str("artifact", "hit")
	tb.End()
	c1.Child(KindPhase, "sim").End()
	c1.End()

	b.End()
	return tr
}

// TestChromeTraceRoundTrip writes a Chrome trace and parses it back,
// asserting the structural invariants Perfetto depends on: a traceEvents
// array, "X" events with ts/dur, pid = worker+1, tid = cell+1, and
// process/thread name metadata.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Records()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var xEvents, meta int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			if ev["ts"] == nil || ev["dur"] == nil {
				t.Fatalf("X event missing ts/dur: %v", ev)
			}
			pids[ev["pid"].(float64)] = true
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	// 2 cells + 4 phases + 1 sweep = 7 duration events.
	if xEvents != 7 {
		t.Fatalf("got %d X events, want 7", xEvents)
	}
	if meta == 0 {
		t.Fatal("no process/thread name metadata")
	}
	// pid 0 = harness (sweep), pid 1 = worker 0, pid 2 = worker 1.
	for _, pid := range []float64{0, 1, 2} {
		if !pids[pid] {
			t.Fatalf("missing pid %v in %v", pid, pids)
		}
	}
	if !strings.Contains(buf.String(), `"artifact":"hit"`) {
		t.Fatal("annotation not exported to args")
	}
}

// TestNDJSONRoundTrip checks one valid JSON record per line.
func TestNDJSONRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	recs := tr.Records()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var n int
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d does not parse: %v", n, err)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("got %d NDJSON lines, want %d", n, len(recs))
	}
}

// TestCellTimings checks the per-cell breakdown: build and sim phases are
// attributed, overhead is the remainder, and queue wait is measured from the
// sweep start.
func TestCellTimings(t *testing.T) {
	tr := buildTrace(t)
	ts := CellTimings(tr.Records())
	if len(ts) != 2 {
		t.Fatalf("got %d cell timings, want 2", len(ts))
	}
	if ts[0].Cell != 0 || ts[1].Cell != 1 {
		t.Fatalf("timings not in cell order: %+v", ts)
	}
	for _, ct := range ts {
		if ct.Bench == "" || ct.Key == "" {
			t.Fatalf("bench/key missing: %+v", ct)
		}
		if ct.QueueWaitSeconds < 0 || ct.BuildSeconds < 0 || ct.SimSeconds < 0 || ct.OverheadSeconds < 0 {
			t.Fatalf("negative component: %+v", ct)
		}
		if ct.BuildSeconds == 0 && ct.SimSeconds == 0 {
			t.Fatalf("no attributed time: %+v", ct)
		}
	}
	if ts[0].Bench != "gzip" || ts[1].Bench != "mcf" {
		t.Fatalf("bench mismatch: %+v", ts)
	}
}
