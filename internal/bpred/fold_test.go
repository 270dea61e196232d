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

// primaryIndexRef is the per-lookup DOLC hash primaryIndex replaced: fold
// every history key to its role's width on every lookup, concatenate
// (wrapping at 48 bits) and fold to the table width. keys holds the pushed
// keys, oldest first. It is the reference primaryIndex must equal.
func primaryIndexRef(d DOLC, bits uint, keys []uint64) int {
	recent := func(i int) uint64 {
		if i >= len(keys) {
			return 0
		}
		return keys[len(keys)-1-i]
	}
	var acc uint64
	var width uint
	push := func(v uint64, bits uint) {
		acc ^= (v & (1<<bits - 1)) << (width % 48)
		width += bits
	}
	push(fold(recent(0), d.Current), d.Current)
	if d.Depth > 1 {
		push(fold(recent(1), d.Last), d.Last)
	}
	for i := 2; i < d.Depth; i++ {
		push(fold(recent(i), d.Older), d.Older)
	}
	return int(fold(acc, bits))
}

// TestPrimaryIndexMatchesReference: the index hashed from folds made at
// push equals the per-lookup hash at every depth up to maxDepth (a
// depth-16 history is 72 bits wide and wraps at 48) and every table width
// from 2^0 to 2^20 entries (10 bits, where 48 is not a multiple of the
// width, included), over random key streams longer than the ring, and in
// copies of a history.
func TestPrimaryIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mismatches := 0
	check := func(what string, p *TracePredictor, h *History, keys []uint64) {
		t.Helper()
		want := primaryIndexRef(p.cfg.DOLC, p.primaryBits, keys)
		if got := p.primaryIndex(h); got != want && mismatches < 10 {
			mismatches++
			t.Errorf("%s: depth %d, %d bits, %d keys: primaryIndex %#x, want %#x",
				what, p.cfg.DOLC.Depth, p.primaryBits, len(keys), got, want)
		}
		var newest uint64
		if len(keys) > 0 {
			newest = keys[len(keys)-1]
		}
		if got, want := p.secondaryIndex(h), int(fold(newest, p.secondaryBits)); got != want && mismatches < 10 {
			mismatches++
			t.Errorf("%s: %d secondary bits: secondaryIndex %#x, want %#x", what, p.secondaryBits, got, want)
		}
	}
	for depth := 1; depth <= maxDepth; depth++ {
		d := DefaultDOLC()
		d.Depth = depth
		for b := 0; b <= 20; b++ {
			p := New(Config{PrimaryEntries: 1 << b, SecondaryEntries: 1 << (20 - b), DOLC: d})
			var h History
			var keys []uint64
			n := 2*maxDepth + rng.Intn(maxDepth)
			for i := 0; i < n; i++ {
				check("fill", p, &h, keys)
				k := rng.Uint64() >> rng.Intn(64) // short keys fold to few chunks
				h.Push(k)
				keys = append(keys, k)
			}
			check("full", p, &h, keys)

			// A copy is a snapshot: pushes to either side leave the other alone.
			cp := h
			cpKeys := append([]uint64(nil), keys...)
			for i := 0; i < 5; i++ {
				k := rng.Uint64()
				h.Push(k)
				keys = append(keys, k)
			}
			check("original after copy", p, &h, keys)
			check("copy", p, &cp, cpKeys)
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches", mismatches)
	}
}

// TestNewRejectsOtherWidths: History folds keys to Table 1's widths only,
// so a predictor asking for others must not be built.
func TestNewRejectsOtherWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted DOLC widths History cannot hash")
		}
	}()
	New(Config{DOLC: DOLC{Depth: 9, Older: 3, Last: 7, Current: 9}})
}
