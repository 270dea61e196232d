// Package pool provides free-lists for the simulator's hot-path state:
// fetched fragments, fragment queue entries, and any other object the cycle
// loop would otherwise allocate fresh every time. A FreeList is owned by one
// simulation (it is deliberately not safe for concurrent use — sharing
// recycled state across concurrent simulations would both race and leak
// state between runs, which the golden determinism suite forbids), so Get
// and Put cost a slice operation and no synchronization.
//
// Recycling policy: Get returns objects as they were put — callers reset the
// fields they need. The steady-state contract the allocation guards pin is
// that Get and Put allocate nothing once the list holds enough objects.
package pool

// FreeList recycles objects of type T for a single simulation.
type FreeList[T any] struct {
	free []*T
	newT func() *T
}

// NewFreeList creates a free list constructing objects with newT. A nil
// newT means Get constructs via new(T).
func NewFreeList[T any](newT func() *T) *FreeList[T] {
	if newT == nil {
		newT = func() *T { return new(T) }
	}
	return &FreeList[T]{newT: newT}
}

// Get returns a recycled object, or a newly constructed one when the list
// is empty. The object's fields are whatever the last user left; callers
// reset what they use.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	return f.newT()
}

// Put returns an object to the list. The caller must not use x afterwards.
func (f *FreeList[T]) Put(x *T) {
	f.free = append(f.free, x)
}

// Len returns how many objects are currently free.
func (f *FreeList[T]) Len() int { return len(f.free) }
