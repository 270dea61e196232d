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

// TestOrderedRelease seals cells out of order and asserts subscribers still
// observe them in index order (head/tail ordered-writer discipline).
func TestOrderedRelease(t *testing.T) {
	tr := New()
	ch, cancel := tr.Subscribe(256)
	defer cancel()

	b := tr.StartBatch("fig8", 4)
	spans := make([]Span, 4)
	for i := range spans {
		spans[i] = b.StartCell(i, "gzip", "cfg", i%2)
	}
	// Complete out of order: 2, 0, 3, 1. Nothing may stream for cell 2 until
	// cells 0 and 1 have been released.
	spans[2].End()
	spans[0].End()
	spans[3].End()
	spans[1].End()
	b.End()
	tr.Close()

	var cellOrder []int
	var progress []int
	for ev := range ch {
		switch ev.Type {
		case "open", "close":
			if ev.Span.Kind == KindCell && ev.Type == "close" {
				cellOrder = append(cellOrder, ev.Span.Cell)
			}
		case "progress":
			progress = append(progress, ev.Cell)
		}
	}
	want := []int{0, 1, 2, 3}
	if len(cellOrder) != 4 {
		t.Fatalf("saw %d cell closes, want 4 (%v)", len(cellOrder), cellOrder)
	}
	for i, c := range cellOrder {
		if c != want[i] {
			t.Fatalf("cell close order %v, want %v", cellOrder, want)
		}
	}
	for i, c := range progress {
		if c != want[i] {
			t.Fatalf("progress order %v, want %v", progress, want)
		}
	}
}

// TestCellTimelineOrdering checks that within one released cell, descendant
// span events stream as a well-nested timeline: parent open before child
// open, child close before parent close.
func TestCellTimelineOrdering(t *testing.T) {
	tr := New()
	ch, cancel := tr.Subscribe(64)
	defer cancel()

	b := tr.StartBatch("s", 1)
	cs := b.StartCell(0, "mcf", "cfg", 0)
	ss := cs.Child(KindPhase, "slice")
	ph := ss.Child(KindPhase, "slice-sim")
	ph.End()
	ss.End()
	cs.End()
	b.End()
	tr.Close()

	depth := 0
	maxDepth := 0
	for ev := range ch {
		switch ev.Type {
		case "open":
			if ev.Span.Cell == 0 {
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
			}
		case "close":
			if ev.Span.Cell == 0 {
				depth--
				if depth < 0 {
					t.Fatalf("close before open for span %d (%s)", ev.Span.ID, ev.Span.Name)
				}
			}
		}
	}
	if depth != 0 || maxDepth != 3 {
		t.Fatalf("timeline not well nested: final depth %d, max depth %d (want 0, 3)", depth, maxDepth)
	}
}

// TestBatchEndForceReleases ensures End releases cells that never sealed
// (e.g. a canceled sweep) so subscribers are not left waiting.
func TestBatchEndForceReleases(t *testing.T) {
	tr := New()
	ch, cancel := tr.Subscribe(64)
	defer cancel()

	b := tr.StartBatch("s", 3)
	b.StartCell(0, "a", "k", 0).End()
	// cells 1 and 2 never run.
	b.End()
	tr.Close()

	var progress int
	var sweepClosed bool
	for ev := range ch {
		if ev.Type == "progress" {
			progress++
		}
		if ev.Type == "close" && ev.Span.Kind == KindSweep {
			sweepClosed = true
		}
	}
	if progress != 3 {
		t.Fatalf("got %d progress events, want 3 (force-released)", progress)
	}
	if !sweepClosed {
		t.Fatal("sweep span never closed")
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

// TestSlowSubscriberDrops verifies the stream never blocks the harness: an
// unserviced subscriber loses events but Batch/Span calls complete.
func TestSlowSubscriberDrops(t *testing.T) {
	tr := New()
	_, cancel := tr.Subscribe(1) // never read
	defer cancel()

	b := tr.StartBatch("s", 16)
	for i := 0; i < 16; i++ {
		b.StartCell(i, "b", "k", 0).End()
	}
	b.End()
	if tr.Dropped() == 0 {
		t.Fatal("expected drops on a buffer-1 unserviced subscriber")
	}
}

// TestConcurrentCells hammers the tracer from parallel goroutines the way the
// work-stealing scheduler does; run under -race this is the thread-safety
// gate. Ordering is still checked on the far side.
func TestConcurrentCells(t *testing.T) {
	tr := New()
	ch, cancel := tr.Subscribe(4096)
	defer cancel()

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
	tr.Close()

	next := 0
	for ev := range ch {
		if ev.Type == "close" && ev.Span.Kind == KindCell {
			if ev.Span.Cell != next {
				t.Fatalf("cell %d streamed before cell %d", ev.Span.Cell, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("streamed %d cells, want %d", next, n)
	}
	if len(tr.Records()) != n*2+1 {
		t.Fatalf("got %d records, want %d", len(tr.Records()), n*2+1)
	}
}

// TestSubscribeAfterClose must hand back a closed channel, not panic.
func TestSubscribeAfterClose(t *testing.T) {
	tr := New()
	tr.Close()
	ch, cancel := tr.Subscribe(1)
	defer cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel from closed tracer not closed")
	}
	var nilTr *Tracer
	ch2, cancel2 := nilTr.Subscribe(1)
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("channel from nil tracer not closed")
	}
}
