package bpred

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/parallel-frontend/pfe/internal/frag"
)

var stateCfg = Config{PrimaryEntries: 1 << 10, SecondaryEntries: 1 << 8, DOLC: DefaultDOLC()}

func trainPredictor(p *TracePredictor, h *History, n, seed int) {
	for i := 0; i < n; i++ {
		id := frag.ID{StartPC: uint64(i*seed%37) * 16, BrMask: uint32(i % 7), NumBr: uint8(i % 4)}
		p.Predict(h)
		p.Update(h, id)
		h.Push(id.Key())
	}
}

// TestTracePredictorStateRoundTrip: a copied predictor holds exactly its
// source's tables and counters, in tables of its own — training either side
// leaves the other as it was.
func TestTracePredictorStateRoundTrip(t *testing.T) {
	cfg, train := stateCfg, trainPredictor
	// ref is trained as src is, so it is what src must still hold.
	src, ref := New(cfg), New(cfg)
	var hs, hr History
	train(src, &hs, 2000, 1)
	train(ref, &hr, 2000, 1)

	cp := New(cfg)
	cp.CopyFrom(src)
	if !reflect.DeepEqual(cp, src) {
		t.Fatal("copy differs from its source")
	}
	if _, n := cp.Accuracy(); n == 0 {
		t.Fatal("source was never trained")
	}
	hc := hs
	train(cp, &hc, 500, 3)
	if !reflect.DeepEqual(src, ref) || hs != hr {
		t.Fatal("training the copy changed its source")
	}

	back := New(cfg)
	back.CopyFrom(src)
	train(src, &hs, 500, 5)
	if !reflect.DeepEqual(back, ref) {
		t.Fatal("training the source changed its copy")
	}
}

// TestTracePredictorStateSizeMismatch: copying a predictor from one with
// other table sizes is a bug and panics.
func TestTracePredictorStateSizeMismatch(t *testing.T) {
	src := New(stateCfg)
	var h History
	trainPredictor(src, &h, 2000, 1)
	for _, cfg := range []Config{
		{PrimaryEntries: 1 << 11, SecondaryEntries: 1 << 8, DOLC: DefaultDOLC()},
		{PrimaryEntries: 1 << 10, SecondaryEntries: 1 << 9, DOLC: DefaultDOLC()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("copy into a %d/%d-entry predictor did not panic", cfg.PrimaryEntries, cfg.SecondaryEntries)
				}
			}()
			New(cfg).CopyFrom(src)
		}()
	}
}

// TestEntryPacking: a table entry keeps its ID's fields beside the counter
// in 16 bytes (a frag.ID field would pad it to 24), and reads back the ID
// it was trained with.
func TestEntryPacking(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
	id := frag.ID{StartPC: 0xfff0, BrMask: 0x15, NumBr: 5}
	e := entry{pc: id.StartPC, mask: id.BrMask, nbr: id.NumBr, ctr: 3}
	if e.id() != id || e.zero() {
		t.Fatalf("entry %+v reads as %v (zero %v)", e, e.id(), e.zero())
	}
	if !(entry{ctr: 2}).zero() || (entry{nbr: 1}).zero() {
		t.Fatal("zero does not test the ID alone")
	}
}
