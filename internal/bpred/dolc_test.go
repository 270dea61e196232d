package bpred

import (
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TestDOLCDepthMatters: a context that only differs D fragments back can
// be disambiguated with a deep history but not with depth 1.
func TestDOLCDepthMatters(t *testing.T) {
	mk := func(pc uint64) frag.ID { return frag.ID{StartPC: pc} }
	a, b := mk(0xa000), mk(0xb000)
	mid := []frag.ID{mk(0x1000), mk(0x2000), mk(0x3000)}
	x, y := mk(0xe000), mk(0xf000)

	accuracy := func(depth int) float64 {
		p := New(Config{PrimaryEntries: 1 << 14, SecondaryEntries: 1 << 12,
			DOLC: DOLC{Depth: depth, Older: 4, Last: 7, Current: 9}})
		var h History
		correct, total := 0, 0
		feed := func(score bool, ids ...frag.ID) {
			for _, id := range ids {
				if score {
					if pred := p.Predict(&h); pred.Valid && pred.ID == id {
						correct++
					}
					total++
				}
				p.Update(&h, id)
				h.Push(id.Key())
			}
		}
		for i := 0; i < 30; i++ {
			feed(false, a)
			feed(false, mid...)
			feed(false, x)
			feed(false, b)
			feed(false, mid...)
			feed(false, y)
		}
		for i := 0; i < 10; i++ {
			feed(false, a)
			feed(false, mid...)
			feed(true, x) // predictable only with depth > len(mid)+1
			feed(false, b)
			feed(false, mid...)
			feed(true, y)
		}
		return float64(correct) / float64(total)
	}

	shallow := accuracy(2) // sees only mid[2], identical in both contexts
	deep := accuracy(6)    // sees a/b
	t.Logf("depth-2 accuracy %.2f, depth-6 accuracy %.2f", shallow, deep)
	if deep < 0.9 {
		t.Errorf("deep history should disambiguate: %.2f", deep)
	}
	if shallow > 0.75 {
		t.Errorf("shallow history should be confused: %.2f", shallow)
	}
}

// TestPredictorColdStart: with no training, predictions must be invalid
// rather than garbage.
func TestPredictorColdStart(t *testing.T) {
	p := New(DefaultConfig())
	var h History
	if pred := p.Predict(&h); pred.Valid {
		t.Errorf("cold predictor returned a valid prediction: %+v", pred)
	}
}

// TestSecondaryCatchesColdPrimary: the shallow-history secondary table
// warms up faster after a context switch to fresh code.
func TestSecondaryCatchesColdPrimary(t *testing.T) {
	p := New(Config{PrimaryEntries: 1024, SecondaryEntries: 256})
	var h History
	seq := []frag.ID{{StartPC: 0x1000}, {StartPC: 0x2000}, {StartPC: 0x3000}}
	// One pass: primary counters are at most 1, so the secondary (which
	// predicts whenever trained) supplies the predictions on pass two.
	for _, id := range seq {
		p.Update(&h, id)
		h.Push(id.Key())
	}
	sawSecondary := false
	for _, id := range seq {
		pred := p.Predict(&h)
		if pred.Valid && pred.FromSecondary && pred.ID == id {
			sawSecondary = true
		}
		p.Update(&h, id)
		h.Push(id.Key())
	}
	if !sawSecondary {
		t.Error("secondary table never supplied an early prediction")
	}
}

// TestPredictorSuiteDeterminism: identical streams produce identical
// predictor statistics.
func TestPredictorSuiteDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		spec, err := program.SpecByName("gzip")
		if err != nil {
			t.Fatal(err)
		}
		p := New(DefaultConfig())
		var h History
		fragmentStream(t, spec, 50_000, func(id frag.ID) {
			p.Update(&h, id)
			h.Push(id.Key())
		})
		return p.Accuracy()
	}
	a1, n1 := run()
	a2, n2 := run()
	if a1 != a2 || n1 != n2 {
		t.Errorf("nondeterministic: %.6f/%d vs %.6f/%d", a1, n1, a2, n2)
	}
}

// TestPredictUpdateEqualsPredictThenUpdate: the one-hash call leaves the
// tables and every counter exactly as Predict followed by Update on the
// same history does, and returns the same prediction.
func TestPredictUpdateEqualsPredictThenUpdate(t *testing.T) {
	cfg := Config{PrimaryEntries: 1 << 10, SecondaryEntries: 1 << 8, DOLC: DefaultDOLC()}
	a, b := New(cfg), New(cfg)
	var ha, hb History
	for i := 0; i < 5000; i++ {
		id := frag.ID{StartPC: uint64(i*i%53) * 4, BrMask: uint32(i % 3), NumBr: uint8(i % 2)}
		want := a.Predict(&ha)
		a.Update(&ha, id)
		if got := b.PredictUpdate(&hb, id); got != want {
			t.Fatalf("step %d: PredictUpdate %+v, Predict %+v", i, got, want)
		}
		ha.Push(id.Key())
		hb.Push(id.Key())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tables or counters differ")
	}
}
