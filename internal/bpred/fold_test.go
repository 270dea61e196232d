package bpred

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// foldLoop is the data-dependent chunk loop fold replaced: XOR each
// bits-wide chunk of v into the result. It is the reference fold must equal.
// (It never terminates for bits == 0 and v != 0.)
func foldLoop(v uint64, bits uint) uint64 {
	mask := uint64(1)<<bits - 1
	r := uint64(0)
	for v != 0 {
		r ^= v & mask
		v >>= bits
	}
	return r
}

// TestFoldMatchesLoop: the shift-cascade fold equals the chunk loop for
// every width the predictor can ask for, on edge and random values.
func TestFoldMatchesLoop(t *testing.T) {
	edges := []uint64{0, 1, 2, ^uint64(0), 1 << 63, 1<<63 - 1, 1<<32 - 1, 1 << 32, 0xaaaaaaaaaaaaaaaa}
	rng := rand.New(rand.NewSource(1))
	mismatches := 0
	check := func(v uint64, bits uint) {
		if got, want := fold(v, bits), foldLoop(v, bits); got != want {
			if mismatches < 10 {
				t.Errorf("fold(%#x, %d) = %#x, want %#x", v, bits, got, want)
			}
			mismatches++
		}
	}
	for bits := uint(1); bits <= 64; bits++ {
		for _, v := range edges {
			check(v, bits)
		}
		for i := 0; i < 20_000; i++ {
			v := rng.Uint64()
			check(v, bits)
			check(v>>rng.Intn(64), bits) // short values: few non-zero chunks
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches", mismatches)
	}
	for _, v := range edges {
		if got := fold(v, 0); got != 0 {
			t.Errorf("fold(%#x, 0) = %#x, want 0", v, got)
		}
	}
}

// TestOneEntryPredictor: 1-entry tables index with zero bits; the predictor
// must still predict and train (the zero-width fold once looped forever).
func TestOneEntryPredictor(t *testing.T) {
	p := New(Config{PrimaryEntries: 1, SecondaryEntries: 1})
	var h History
	if pred := p.Predict(&h); pred.Valid {
		t.Fatalf("cold 1-entry predictor returned %+v", pred)
	}
	id := frag.ID{StartPC: 0x1000, BrMask: 1, NumBr: 1}
	for i := 0; i < 3; i++ {
		p.Update(&h, id)
		h.Push(id.Key())
	}
	if pred := p.Predict(&h); !pred.Valid || pred.ID != id {
		t.Errorf("trained 1-entry predictor returned %+v, want %v", pred, id)
	}
	if acc, n := p.Accuracy(); n != 3 || acc != 2.0/3 {
		t.Errorf("accuracy %.3f over %d updates, want 0.667 over 3", acc, n)
	}
}
