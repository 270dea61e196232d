package mem

import (
	"reflect"
	"testing"
)

var stateGeom = CacheGeometry{SizeBytes: 4096, Ways: 2, BlockBytes: 64, HitLatency: 1}

func touchCache(c *Cache, n, seed int) {
	for i := 0; i < n; i++ {
		c.Access(uint64(i*seed)*88+13, i%3 == 0, uint64(i))
	}
}

func touchHierarchy(h *Hierarchy, n, seed int) {
	for i := 0; i < n; i++ {
		h.L1I.Access(uint64(i*seed)*64, false, uint64(i))
		h.L1D.Access(uint64(i*seed)*96+1<<20, i%4 == 0, uint64(i))
	}
}

// TestCacheStateRoundTrip: a copied cache holds exactly its source's tags,
// valid bits, LRU stamps and counters, in arrays of its own — traffic on
// either side leaves the other as it was — and answers later traffic as its
// source would.
func TestCacheStateRoundTrip(t *testing.T) {
	// trained returns what src is, and must still be, after its training.
	trained := func() *Cache {
		c := NewCache("l1t", stateGeom, nil)
		touchCache(c, 500, 1)
		return c
	}
	src := trained()
	cp := NewCache("l1t", stateGeom, nil)
	cp.CopyFrom(src)
	if !reflect.DeepEqual(cp, src) {
		t.Fatal("copy differs from its source")
	}
	if cp.Accesses() == 0 || cp.Misses() == 0 {
		t.Fatal("source was never trained")
	}
	ref := trained()
	for i := 0; i < 200; i++ {
		addr := uint64(i)*72 + 7
		if a, b := ref.Access(addr, false, uint64(500+i)), cp.Access(addr, false, uint64(500+i)); a != b {
			t.Fatalf("copy's latency diverges at %d: %d vs %d", i, b, a)
		}
	}
	if !reflect.DeepEqual(cp, ref) {
		t.Fatal("copy and source diverged under the same traffic")
	}
	if !reflect.DeepEqual(src, trained()) {
		t.Fatal("traffic on the copy changed its source")
	}

	back := NewCache("l1t", stateGeom, nil)
	back.CopyFrom(src)
	touchCache(src, 300, 5)
	if !reflect.DeepEqual(back, trained()) {
		t.Fatal("traffic on the source changed its copy")
	}
}

// TestCacheStateGeometryMismatch: copying a cache or a hierarchy from one of
// another geometry is a bug and panics.
func TestCacheStateGeometryMismatch(t *testing.T) {
	src := NewCache("l1t", stateGeom, nil)
	touchCache(src, 500, 1)
	big := stateGeom
	big.SizeBytes *= 2
	mustPanic(t, "cache", func() { NewCache("l1t", big, nil).CopyFrom(src) })

	cfg := DefaultHierarchyConfig()
	hs := NewHierarchy(cfg)
	touchHierarchy(hs, 1000, 1)
	other := cfg
	other.L2.SizeBytes *= 2
	mustPanic(t, "hierarchy", func() { NewHierarchy(other).CopyFrom(hs) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s copy across geometries did not panic", what)
		}
	}()
	f()
}

// TestHierarchyStateRoundTrip: a copied hierarchy holds exactly its source's
// three caches and DRAM access count, in arrays of its own — traffic on
// either side leaves the other as it was.
func TestHierarchyStateRoundTrip(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	// ref is trained as src is, so it is what src must still hold.
	src, ref := NewHierarchy(cfg), NewHierarchy(cfg)
	touchHierarchy(src, 1000, 1)
	touchHierarchy(ref, 1000, 1)

	cp := NewHierarchy(cfg)
	cp.CopyFrom(src)
	if !reflect.DeepEqual(cp, src) {
		t.Fatal("copy differs from its source")
	}
	if cp.Memory.Accesses == 0 || cp.L2.Accesses() == 0 {
		t.Fatal("source was never trained")
	}
	touchHierarchy(cp, 500, 3)
	if !reflect.DeepEqual(src, ref) {
		t.Fatal("traffic on the copy changed its source")
	}

	back := NewHierarchy(cfg)
	back.CopyFrom(src)
	touchHierarchy(src, 500, 5)
	if !reflect.DeepEqual(back, ref) {
		t.Fatal("traffic on the source changed its copy")
	}
}
