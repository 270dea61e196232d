package span

import (
	"sync"
	"testing"
)

// TestNilTracerAllocFree is the alloc-guard behind "tracing off costs ~0":
// the full call surface on a nil tracer must not allocate at all, so the
// harness can thread spans unconditionally.
func TestNilTracerAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		b := tr.StartBatch("sweep", 8)
		cs := b.StartCell(3, "gzip", "PF-4x4w", 1)
		ss := cs.Child(KindPhase, "slice")
		ps := ss.Child(KindPhase, "slice-sim")
		ps.Str("source", "memo")
		ps.Int("cycles", 123)
		ps.Float("ipc", 1.5)
		ps.End()
		tr.Phase(cs.ID(), "journal-append").End()
		tr.SpanFor(cs.ID()).Int("x", 1)
		ss.End()
		cs.End()
		b.Steal(1, 0, 4)
		b.End()
		if cs.OK() || ss.ID() != 0 {
			t.Fatal("nil tracer handed out a live span")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestCellTimelineOrdering checks that a cell's descendant spans nest by
// parent and by time: each record's parent is the span opened above it, and
// every child starts no earlier and ends no later than its parent.
func TestCellTimelineOrdering(t *testing.T) {
	tr := New()
	b := tr.StartBatch("s", 1)
	cs := b.StartCell(0, "mcf", "cfg", 0)
	ss := cs.Child(KindPhase, "slice")
	ph := ss.Child(KindPhase, "slice-sim")
	ph.End()
	ss.End()
	cs.End()
	b.End()

	recs := tr.Records()
	byID := map[ID]Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	wantParent := map[string]string{"cell": "s", "slice": "cell", "slice-sim": "slice"}
	for _, r := range recs {
		if r.Kind == KindSweep {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok || p.Name != wantParent[r.Name] {
			t.Fatalf("%s: parent %d (%q), want %q", r.Name, r.Parent, p.Name, wantParent[r.Name])
		}
		if r.StartNs < p.StartNs || r.EndNs > p.EndNs {
			t.Errorf("%s [%d, %d] not inside its parent %s [%d, %d]",
				r.Name, r.StartNs, r.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		if r.Cell != 0 {
			t.Errorf("%s: cell %d, want 0", r.Name, r.Cell)
		}
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (sweep, cell, slice, slice-sim)", len(recs))
	}
}

// TestBatchEndForceReleases ensures End closes the sweep span even when some
// of its cells never ran (e.g. a canceled sweep).
func TestBatchEndForceReleases(t *testing.T) {
	tr := New()
	b := tr.StartBatch("s", 3)
	b.StartCell(0, "a", "k", 0).End()
	// cells 1 and 2 never run.
	b.End()

	var cells int
	var sweep *Record
	recs := tr.Records()
	for i := range recs {
		switch recs[i].Kind {
		case KindCell:
			cells++
		case KindSweep:
			sweep = &recs[i]
		}
	}
	if cells != 1 {
		t.Fatalf("got %d cell records, want 1", cells)
	}
	if sweep == nil {
		t.Fatal("sweep span never closed")
	}
	if a := sweep.Annot("steals"); a == nil || a.Int != 0 {
		t.Errorf("sweep steal annotation = %+v, want 0", a)
	}
}

// TestChildInheritsScope checks batch/cell/worker/bench propagation through
// the parent chain, which the exporters rely on for pid/tid mapping.
func TestChildInheritsScope(t *testing.T) {
	tr := New()
	b := tr.StartBatch("fig4", 2)
	cs := b.StartCell(1, "twolf", "TR-16x4w", 3)
	ss := cs.Child(KindPhase, "slice")
	ph := ss.Child(KindPhase, "tape-build")
	ph.Str("artifact", "hit")
	ph.End()
	ss.End()
	cs.End()
	b.End()

	recs := tr.Records()
	var phase *Record
	for i := range recs {
		if recs[i].Name == "tape-build" {
			phase = &recs[i]
		}
	}
	if phase == nil {
		t.Fatal("phase record missing")
	}
	if phase.Cell != 1 || phase.Worker != 3 || phase.Bench != "twolf" || phase.Key != "TR-16x4w" || phase.Batch != "fig4" {
		t.Fatalf("scope not inherited: %+v", phase)
	}
	if a := phase.Annot("artifact"); a == nil || a.Str != "hit" {
		t.Fatalf("annotation lost: %+v", phase.Annots)
	}
}

// TestConcurrentCells hammers the tracer from parallel goroutines the way the
// work-stealing scheduler does; run under -race this is the thread-safety
// gate. Every cell and phase must come back as one record under its parent.
func TestConcurrentCells(t *testing.T) {
	tr := New()
	const n = 64
	b := tr.StartBatch("s", n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				cs := b.StartCell(i, "b", "k", w)
				ph := cs.Child(KindPhase, "sim")
				ph.Int("cycles", int64(i))
				ph.End()
				cs.End()
			}
		}(w)
	}
	wg.Wait()
	b.End()

	recs := tr.Records()
	if len(recs) != n*2+1 {
		t.Fatalf("got %d records, want %d", len(recs), n*2+1)
	}
	cellSpan := map[int]ID{}
	for _, r := range recs {
		if r.Kind == KindCell {
			cellSpan[r.Cell] = r.ID
		}
	}
	if len(cellSpan) != n {
		t.Fatalf("got %d distinct cells, want %d", len(cellSpan), n)
	}
	for _, r := range recs {
		if r.Name == "sim" {
			if r.Parent != cellSpan[r.Cell] {
				t.Errorf("phase of cell %d has parent %d, want %d", r.Cell, r.Parent, cellSpan[r.Cell])
			}
			if a := r.Annot("cycles"); a == nil || a.Int != int64(r.Cell) {
				t.Errorf("phase of cell %d lost its annotation: %+v", r.Cell, r.Annots)
			}
		}
	}
}
