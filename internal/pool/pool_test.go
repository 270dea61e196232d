package pool

import "testing"

type thing struct{ n int }

func TestFreeListReuse(t *testing.T) {
	built := 0
	fl := NewFreeList(func() *thing { built++; return &thing{} })

	a := fl.Get()
	if built != 1 {
		t.Fatalf("built = %d, want 1", built)
	}
	a.n = 42
	fl.Put(a)
	b := fl.Get()
	if b != a {
		t.Fatal("Get did not return the recycled object")
	}
	if b.n != 42 {
		t.Fatal("recycled object was reset by the pool; resetting is the caller's job")
	}
	if built != 1 {
		t.Fatalf("built = %d, want 1 (second Get must reuse)", built)
	}
}

func TestFreeListDefaultConstructor(t *testing.T) {
	fl := NewFreeList[thing](nil)
	if fl.Get() == nil {
		t.Fatal("nil constructor must fall back to new(T)")
	}
}

func TestFreeListLIFOAndLen(t *testing.T) {
	fl := NewFreeList[thing](nil)
	a, b := fl.Get(), fl.Get()
	fl.Put(a)
	fl.Put(b)
	if fl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", fl.Len())
	}
	if got := fl.Get(); got != b {
		t.Fatal("expected LIFO order (hot object first)")
	}
	if fl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fl.Len())
	}
}

func TestAllocFreeSteadyState(t *testing.T) {
	fl := NewFreeList[thing](nil)
	x := fl.Get()
	fl.Put(x)
	allocs := testing.AllocsPerRun(1000, func() {
		fl.Put(fl.Get())
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v per run, want 0", allocs)
	}
}
