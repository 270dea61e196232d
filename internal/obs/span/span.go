// Package span is the sweep-level tracing layer: a low-overhead hierarchical
// span tracer for the experiment harness (sweep → cell → phase).
// It complements internal/trace, which records per-cycle events *inside* one
// simulation; span records where wall-clock goes *across* a sweep — scheduler
// queue time, artifact builds, journal appends, sampled windows — with explicit
// parent/child IDs, monotonic timestamps, and typed annotations.
//
// A nil *Tracer is a valid no-op sink: every method on Tracer, Batch, and
// Span is nil-receiver safe and allocation-free, so call sites thread spans
// unconditionally and pay ~nothing when tracing is off (alloc-guard tested).
//
// A sweep is reported after it ends: Records returns every completed span,
// and the exporters (WriteChromeTrace, WriteNDJSON, CellTimings) read them.
package span

import (
	"fmt"
	"sync"
	"time"
)

// ID identifies one span within a Tracer. IDs are dense and allocation-ordered
// (1, 2, 3, ...); 0 is "no span" and is what a nil tracer hands out.
type ID uint64

// Span kinds. Kind is informational — the hierarchy is carried by Parent IDs.
const (
	KindSweep = "sweep"
	KindCell  = "cell"
	KindPhase = "phase"
)

// Annot is one typed key/value annotation on a span. Exactly one of the value
// fields is meaningful per annotation; the zero values of the others are
// omitted from JSON.
type Annot struct {
	Key   string  `json:"k"`
	Str   string  `json:"s,omitempty"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
}

// Record is the completed form of a span. Timestamps are nanoseconds since
// the tracer epoch, taken from the monotonic clock. Worker and Cell are -1
// when the span is not bound to a scheduler worker / sweep cell.
type Record struct {
	ID      ID      `json:"id"`
	Parent  ID      `json:"parent,omitempty"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Batch   string  `json:"batch,omitempty"`
	Bench   string  `json:"bench,omitempty"`
	Key     string  `json:"key,omitempty"`
	Worker  int     `json:"worker"`
	Cell    int     `json:"cell"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Annots  []Annot `json:"annots,omitempty"`
}

// Dur returns the span duration.
func (r *Record) Dur() time.Duration { return time.Duration(r.EndNs - r.StartNs) }

// Annot returns the annotation with the given key, or nil.
func (r *Record) Annot(key string) *Annot {
	for i := range r.Annots {
		if r.Annots[i].Key == key {
			return &r.Annots[i]
		}
	}
	return nil
}

// batchState is the per-sweep state a Batch handle carries: the sweep span
// and its steal totals.
type batchState struct {
	name    string
	sweep   ID
	steals  int64
	stolenN int64
}

// Tracer collects spans. Create with New; a nil *Tracer is the documented
// off switch.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  ID
	open    map[ID]*Record
	records []Record
}

// New returns an empty tracer with its epoch pinned to now.
func New() *Tracer {
	return &Tracer{
		epoch: time.Now(),
		open:  make(map[ID]*Record),
	}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Span is a handle on an in-flight span. The zero Span (from a nil tracer)
// is a no-op: all methods are safe and free on it.
type Span struct {
	t  *Tracer
	id ID
}

// Batch is a handle on an in-flight sweep batch.
type Batch struct {
	t *Tracer
	b *batchState
}

// startLocked assigns a span its ID and start time and opens it. Callers
// hold t.mu.
func (t *Tracer) startLocked(rec *Record) ID {
	t.nextID++
	rec.ID = t.nextID
	rec.StartNs = t.now()
	t.open[rec.ID] = rec
	return rec.ID
}

// StartBatch opens a sweep span for a batch of n cells and returns the batch
// whose StartCell/Steal/End calls scope it.
func (t *Tracer) StartBatch(name string, n int) Batch {
	if t == nil {
		return Batch{}
	}
	if name == "" {
		name = "sweep"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &batchState{name: name}
	b.sweep = t.startLocked(&Record{
		Kind:   KindSweep,
		Name:   name,
		Batch:  name,
		Worker: -1,
		Cell:   -1,
	})
	return Batch{t: t, b: b}
}

// StartCell opens the span for cell i of the batch, bound to the worker that
// runs it.
func (b Batch) StartCell(i int, bench, key string, worker int) Span {
	if b.t == nil {
		return Span{}
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	id := b.t.startLocked(&Record{
		Parent: b.b.sweep,
		Kind:   KindCell,
		Name:   "cell",
		Batch:  b.b.name,
		Bench:  bench,
		Key:    key,
		Worker: worker,
		Cell:   i,
	})
	return Span{t: b.t, id: id}
}

// Steal records a work-steal: thief took n tasks from victim. Steals are
// summarized as annotations on the sweep span at End.
func (b Batch) Steal(thief, victim, n int) {
	if b.t == nil {
		return
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.b.steals++
	b.b.stolenN += int64(n)
}

// End closes the batch: steal totals are annotated on the sweep span, which
// then closes whether or not every cell ran.
func (b Batch) End() {
	if b.t == nil {
		return
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	if rec, ok := b.t.open[b.b.sweep]; ok {
		rec.Annots = append(rec.Annots,
			Annot{Key: "steals", Int: b.b.steals},
			Annot{Key: "stolen_tasks", Int: b.b.stolenN})
	}
	b.t.endLocked(b.b.sweep)
}

// Phase opens a phase span under parent. Batch/cell/worker scope is inherited
// from the parent.
func (t *Tracer) Phase(parent ID, name string) Span {
	return t.child(parent, KindPhase, name)
}

func (t *Tracer) child(parent ID, kind, name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &Record{
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Worker: -1,
		Cell:   -1,
	}
	if p, ok := t.open[parent]; ok {
		rec.Batch = p.Batch
		rec.Bench = p.Bench
		rec.Key = p.Key
		rec.Worker = p.Worker
		rec.Cell = p.Cell
	}
	id := t.startLocked(rec)
	return Span{t: t, id: id}
}

// SpanFor returns a handle on an already-open span by ID, for annotating a
// parent from a callee that only received the ID. The handle is a no-op if
// the tracer is nil or the span has already ended.
func (t *Tracer) SpanFor(id ID) Span {
	if t == nil || id == 0 {
		return Span{}
	}
	return Span{t: t, id: id}
}

// ID returns the span's ID (0 for the no-op span).
func (s Span) ID() ID {
	if s.t == nil {
		return 0
	}
	return s.id
}

// OK reports whether the handle is backed by a live tracer.
func (s Span) OK() bool { return s.t != nil }

// Child opens a child span of kind with the given name under s.
func (s Span) Child(kind, name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.child(s.id, kind, name)
}

// Str annotates the span with a string value.
func (s Span) Str(key, v string) {
	if s.t == nil {
		return
	}
	s.t.annot(s.id, Annot{Key: key, Str: v})
}

// Int annotates the span with an integer value.
func (s Span) Int(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.annot(s.id, Annot{Key: key, Int: v})
}

// Float annotates the span with a float value.
func (s Span) Float(key string, v float64) {
	if s.t == nil {
		return
	}
	s.t.annot(s.id, Annot{Key: key, Float: v})
}

func (t *Tracer) annot(id ID, a Annot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.open[id]; ok {
		rec.Annots = append(rec.Annots, a)
	}
}

// End closes the span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.endLocked(s.id)
}

func (t *Tracer) endLocked(id ID) {
	rec, ok := t.open[id]
	if !ok {
		return // double End: ignore
	}
	delete(t.open, id)
	rec.EndNs = t.now()
	t.records = append(t.records, *rec)
}

// Close does nothing. It is kept for callers that still end a sweep with it;
// records stay readable either way.
func (t *Tracer) Close() {}

// Records returns a copy of all completed span records, in completion order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, len(t.records))
	copy(out, t.records)
	return out
}

// String implements fmt.Stringer for debugging.
func (t *Tracer) String() string {
	if t == nil {
		return "span.Tracer(nil)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("span.Tracer{records: %d, open: %d}", len(t.records), len(t.open))
}
