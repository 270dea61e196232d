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
// Live streaming follows a head/tail ordered-writer discipline: events for
// cell i are buffered until every cell < i has flushed, so subscribers (the
// /events SSE feed) observe cells in deterministic index order even though
// the work-stealing scheduler completes them out of order. Steal and batch
// lifecycle events are not cell-scoped and stream immediately.
package span

import (
	"fmt"
	"sort"
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

// Record is the completed (or, in "open" events, in-flight) form of a span.
// Timestamps are nanoseconds since the tracer epoch, taken from the monotonic
// clock. Worker and Cell are -1 when the span is not bound to a scheduler
// worker / sweep cell.
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

// Event is one element of the live stream. Type is "open", "close", "steal",
// or "progress". Open/close events carry the span record (EndNs is zero on
// open). Progress events follow each released cell and carry done/planned
// counts; steal events carry thief/victim worker IDs and the task count moved.
type Event struct {
	Type    string  `json:"type"`
	Seq     uint64  `json:"seq"`
	Span    *Record `json:"span,omitempty"`
	Batch   string  `json:"batch,omitempty"`
	Cell    int     `json:"cell,omitempty"`
	Done    int     `json:"done,omitempty"`
	Planned int     `json:"planned,omitempty"`
	Thief   int     `json:"thief,omitempty"`
	Victim  int     `json:"victim,omitempty"`
	Tasks   int     `json:"tasks,omitempty"`
}

// spanState is the mutable in-flight form of a span.
type spanState struct {
	rec   Record
	batch *batchState // non-nil iff the span is cell-scoped
}

// batchState buffers cell-scoped records for ordered release.
type batchState struct {
	name    string
	sweep   ID
	n       int
	head    int // first cell not yet released
	sealed  []bool
	cells   [][]Record // completed records per cell, filled until sealed
	steals  int64
	stolenN int64
}

// Tracer collects spans and fans events out to subscribers. Create with New;
// a nil *Tracer is the documented off switch.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  ID
	open    map[ID]*spanState
	records []Record
	subs    map[int]chan Event
	nextSub int
	seq     uint64
	dropped uint64
	closed  bool
}

// New returns an empty tracer with its epoch pinned to now.
func New() *Tracer {
	return &Tracer{
		epoch: time.Now(),
		open:  make(map[ID]*spanState),
		subs:  make(map[int]chan Event),
	}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Span is a handle on an in-flight span. The zero Span (from a nil tracer)
// is a no-op: all methods are safe and free on it.
type Span struct {
	t  *Tracer
	id ID
}

// Batch is a handle on an in-flight sweep batch (ordered-release domain).
type Batch struct {
	t *Tracer
	b *batchState
}

// publishLocked fans an event out to all subscribers without blocking: a
// subscriber that cannot keep up drops events (counted) rather than stalling
// the harness. Callers hold t.mu.
func (t *Tracer) publishLocked(ev Event) {
	t.seq++
	ev.Seq = t.seq
	for _, ch := range t.subs {
		select {
		case ch <- ev:
		default:
			t.dropped++
		}
	}
}

// startLocked allocates a span state and, when the span is not cell-scoped,
// publishes its open event immediately. Callers hold t.mu.
func (t *Tracer) startLocked(st *spanState) ID {
	t.nextID++
	st.rec.ID = t.nextID
	st.rec.StartNs = t.now()
	t.open[st.rec.ID] = st
	if st.batch == nil {
		rec := st.rec
		t.publishLocked(Event{Type: "open", Span: &rec})
	}
	return st.rec.ID
}

// StartBatch opens a sweep span covering n cells and returns the batch whose
// StartCell/Steal/End calls scope the ordered-release discipline. The sweep
// open event streams immediately.
func (t *Tracer) StartBatch(name string, n int) Batch {
	if t == nil {
		return Batch{}
	}
	if name == "" {
		name = "sweep"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &batchState{
		name:   name,
		n:      n,
		sealed: make([]bool, n),
		cells:  make([][]Record, n),
	}
	st := &spanState{rec: Record{
		Kind:   KindSweep,
		Name:   name,
		Batch:  name,
		Worker: -1,
		Cell:   -1,
	}}
	b.sweep = t.startLocked(st)
	return Batch{t: t, b: b}
}

// StartCell opens the span for cell i of the batch, bound to the worker that
// runs it. Its events (and those of all descendant spans) buffer until every
// prior cell has been released.
func (b Batch) StartCell(i int, bench, key string, worker int) Span {
	if b.t == nil {
		return Span{}
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	st := &spanState{
		rec: Record{
			Parent: b.b.sweep,
			Kind:   KindCell,
			Name:   "cell",
			Batch:  b.b.name,
			Bench:  bench,
			Key:    key,
			Worker: worker,
			Cell:   i,
		},
		batch: b.b,
	}
	id := b.t.startLocked(st)
	return Span{t: b.t, id: id}
}

// Steal records a work-steal: thief took n tasks from victim. The event
// streams immediately (steals are scheduler-level, not cell-scoped) and is
// summarized as annotations on the sweep span at End.
func (b Batch) Steal(thief, victim, n int) {
	if b.t == nil {
		return
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.b.steals++
	b.b.stolenN += int64(n)
	b.t.publishLocked(Event{Type: "steal", Batch: b.b.name, Thief: thief, Victim: victim, Tasks: n})
}

// End closes the batch: any straggler cells are force-released (defensive —
// the scheduler seals every cell it ran), steal totals are annotated on the
// sweep span, and the sweep close event streams.
func (b Batch) End() {
	if b.t == nil {
		return
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	for i := b.b.head; i < b.b.n; i++ {
		b.b.sealed[i] = true
	}
	b.t.sealLocked(b.b)
	if st, ok := b.t.open[b.b.sweep]; ok {
		st.rec.Annots = append(st.rec.Annots,
			Annot{Key: "steals", Int: b.b.steals},
			Annot{Key: "stolen_tasks", Int: b.b.stolenN})
	}
	b.t.endLocked(b.b.sweep)
}

// Tracer returns the tracer backing this batch (nil for the no-op batch).
func (b Batch) Tracer() *Tracer { return b.t }

// Phase opens a phase span under parent. Batch/cell/worker scope is inherited
// from the parent, so phases inside a cell buffer with that cell.
func (t *Tracer) Phase(parent ID, name string) Span {
	return t.child(parent, KindPhase, name)
}

func (t *Tracer) child(parent ID, kind, name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &spanState{rec: Record{
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Worker: -1,
		Cell:   -1,
	}}
	if p, ok := t.open[parent]; ok {
		st.rec.Batch = p.rec.Batch
		st.rec.Bench = p.rec.Bench
		st.rec.Key = p.rec.Key
		st.rec.Worker = p.rec.Worker
		st.rec.Cell = p.rec.Cell
		st.batch = p.batch
	}
	id := t.startLocked(st)
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
	if st, ok := t.open[id]; ok {
		st.rec.Annots = append(st.rec.Annots, a)
	}
}

// End closes the span. Ending a cell span seals its cell; the tracer then
// releases every sealed cell at the head of the batch, in index order.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.endLocked(s.id)
}

func (t *Tracer) endLocked(id ID) {
	st, ok := t.open[id]
	if !ok {
		return // double End or already-released span: ignore
	}
	delete(t.open, id)
	st.rec.EndNs = t.now()
	t.records = append(t.records, st.rec)
	if st.batch == nil {
		rec := st.rec
		t.publishLocked(Event{Type: "close", Span: &rec})
		return
	}
	b := st.batch
	if c := st.rec.Cell; c >= 0 && c < b.n {
		b.cells[c] = append(b.cells[c], st.rec)
		if st.rec.Kind == KindCell {
			b.sealed[c] = true
			t.sealLocked(b)
		}
	}
}

// sealLocked advances the batch head past every sealed cell, publishing each
// released cell's buffered timeline (open/close pairs in timestamp order)
// followed by a progress event.
func (t *Tracer) sealLocked(b *batchState) {
	for b.head < b.n && b.sealed[b.head] {
		recs := b.cells[b.head]
		b.cells[b.head] = nil
		type item struct {
			at    int64
			close bool
			rec   Record
		}
		items := make([]item, 0, 2*len(recs))
		for _, r := range recs {
			items = append(items, item{at: r.StartNs, rec: r}, item{at: r.EndNs, close: true, rec: r})
		}
		sort.SliceStable(items, func(i, j int) bool {
			if items[i].at != items[j].at {
				return items[i].at < items[j].at
			}
			if items[i].close != items[j].close {
				return !items[i].close // opens before closes at equal timestamps
			}
			if items[i].close {
				return items[i].rec.ID > items[j].rec.ID // children close first
			}
			return items[i].rec.ID < items[j].rec.ID // parents open first
		})
		for _, it := range items {
			rec := it.rec
			if it.close {
				t.publishLocked(Event{Type: "close", Span: &rec})
			} else {
				rec.EndNs = 0
				t.publishLocked(Event{Type: "open", Span: &rec})
			}
		}
		b.head++
		t.publishLocked(Event{Type: "progress", Batch: b.name, Cell: b.head - 1, Done: b.head, Planned: b.n})
	}
}

// Subscribe registers a live event feed with the given channel buffer and
// returns the channel plus a cancel func. Events the subscriber cannot absorb
// are dropped, never blocked on. On a nil or closed tracer the returned
// channel is already closed.
func (t *Tracer) Subscribe(buf int) (<-chan Event, func()) {
	if t == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	id := t.nextSub
	t.nextSub++
	t.subs[id] = ch
	return ch, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if c, ok := t.subs[id]; ok {
			delete(t.subs, id)
			close(c)
		}
	}
}

// Close ends the stream: subscriber channels are closed and late Subscribe
// calls get an already-closed channel. Records remain readable.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for id, ch := range t.subs {
		delete(t.subs, id)
		close(ch)
	}
}

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

// Dropped reports how many events were dropped on slow subscribers.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// String implements fmt.Stringer for debugging.
func (t *Tracer) String() string {
	if t == nil {
		return "span.Tracer(nil)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("span.Tracer{records: %d, open: %d, subs: %d}", len(t.records), len(t.open), len(t.subs))
}
