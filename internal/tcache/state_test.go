package tcache

import (
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// testFrag builds a four-instruction trace for id, as a fill unit would.
func testFrag(id frag.ID) *frag.Fragment {
	f := &frag.Fragment{ID: id}
	for j := 0; j < 4; j++ {
		f.PCs = append(f.PCs, id.StartPC+uint64(j)*4)
	}
	return f
}

var stateCfg = Config{SizeBytes: 1 << 14, Ways: 2}

func accessTCache(c *Cache, n, seed int) {
	for i := 0; i < n; i++ {
		id := frag.ID{StartPC: uint64(i*seed%97) * 32, BrMask: uint32(i % 11), NumBr: uint8(i % 4)}
		if _, ok := c.Lookup(id); !ok {
			c.Fill(testFrag(id))
		}
	}
}

// TestTCacheStateRoundTrip: a copied trace cache holds exactly its source's
// line identities, valid bits, LRU stamps and counters, with every valid
// line's trace taken from the resolver it was given rather than shared with
// the source, in lines of its own — traffic on either side leaves the other
// as it was.
func TestTCacheStateRoundTrip(t *testing.T) {
	cfg, access := stateCfg, accessTCache
	// ref is filled as src is, so it is what src must still hold.
	src, ref := New(cfg), New(cfg)
	access(src, 800, 1)
	access(ref, 800, 1)

	resolved := map[frag.ID]*frag.Fragment{}
	cp := New(cfg)
	cp.CopyFrom(src, func(id frag.ID) *frag.Fragment {
		f := testFrag(id)
		resolved[id] = f
		return f
	})
	if !reflect.DeepEqual(cp, src) {
		t.Fatal("copy differs from its source")
	}
	valid := 0
	for i, ln := range cp.lines {
		if !ln.valid {
			continue
		}
		valid++
		if ln.f != resolved[ln.id] || ln.f == src.lines[i].f {
			t.Fatalf("line %d's trace %v did not come from the resolver", i, ln.id)
		}
	}
	if valid == 0 || len(resolved) != valid {
		t.Fatalf("%d valid lines, %d resolved traces", valid, len(resolved))
	}
	access(cp, 300, 3)
	if !reflect.DeepEqual(src, ref) {
		t.Fatal("traffic on the copy changed its source")
	}

	back := New(cfg)
	back.CopyFrom(src, testFrag)
	access(src, 300, 5)
	if !reflect.DeepEqual(back, ref) {
		t.Fatal("traffic on the source changed its copy")
	}
}

// TestTCacheStateSizeMismatch: copying a trace cache from one of another
// size is a bug and panics.
func TestTCacheStateSizeMismatch(t *testing.T) {
	src := New(stateCfg)
	accessTCache(src, 800, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("copy across trace cache sizes did not panic")
		}
	}()
	New(Config{SizeBytes: 1 << 15, Ways: 2}).CopyFrom(src, testFrag)
}
