package backend

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
)

// checkIndex compares the window's seq index with the reference map for
// every seq in [lo, hi).
func checkIndex(t *testing.T, step int, x *seqIndex, ref map[uint64]*Op, lo, hi uint64) {
	t.Helper()
	for seq := lo; seq < hi; seq++ {
		if got, want := x.get(seq), ref[seq]; got != want {
			t.Fatalf("step %d: seq %d: index has %p, reference %p", step, seq, got, want)
		}
	}
	if n := x.occupied(); n != len(ref) {
		t.Fatalf("step %d: index holds %d ops, reference %d", step, n, len(ref))
	}
}

// occupied counts the index's live entries.
func (x *seqIndex) occupied() int {
	n := 0
	for _, s := range x.slots {
		if s.op != nil {
			n++
		}
	}
	return n
}

// TestSeqIndexMatchesMap drives a back-end the way the front-ends do —
// fragments allocated in seq order and renamed two at a time with their ops
// interleaved, commits from the head, squashes from a seq, live-out
// recovery re-inserting squashed ops after ResetExec, and seq jumps far
// larger than the index table (seqs are never reused across squashes) —
// against a reference map kept by hand. After every step the index must
// agree with the map for every seq in range.
func TestSeqIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.WindowSize, cfg.CommitWidth = 32, 4 // a 64-slot table
		b := New(cfg, nil)
		ref := map[uint64]*Op{}
		b.CommitHook = func(op *Op) { delete(ref, op.Seq) }

		var squashed []*Op // awaiting re-insert (live-out recovery)
		next := uint64(rng.Intn(1000))
		lo := next
		now := uint64(0)
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 5 && len(squashed) == 0:
				// Two fragments renamed in parallel: each fragment's ops
				// in seq order, the two streams interleaved at random.
				// Fragments that do not fit are dropped, leaving a gap.
				var frags [2][]*Op
				for k := range frags {
					for i := rng.Intn(8); i >= 0; i-- {
						op := &Op{Seq: next, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}}
						if rng.Intn(2) == 0 {
							op.Producers[0], op.NProd = next-1, 1
						}
						next++
						frags[k] = append(frags[k], op)
					}
				}
				if len(frags[0])+len(frags[1]) > b.FreeSlots() {
					break
				}
				for len(frags[0])+len(frags[1]) > 0 {
					k := rng.Intn(2)
					if len(frags[k]) == 0 {
						k = 1 - k
					}
					op := frags[k][0]
					frags[k] = frags[k][1:]
					b.Insert(op)
					ref[op.Seq] = op
				}
			case r < 5:
				// Re-rename the squashed ops (a prefix of them may come back
				// before the rest, as fragments are re-renamed in turn).
				n := 1 + rng.Intn(len(squashed))
				if n > b.FreeSlots() {
					n = b.FreeSlots()
				}
				for _, op := range squashed[:n] {
					op.ResetExec()
					b.Insert(op)
					ref[op.Seq] = op
				}
				squashed = squashed[n:]
			case r < 8:
				b.Cycle(now) // issue, then commit from the head
				now++
			case r < 9:
				// Squash from a random in-flight seq (or past the youngest).
				from := next
				if b.InFlight() > 0 {
					oldest, _ := b.OldestSeq()
					from = oldest + uint64(rng.Intn(int(next-oldest)+1))
				}
				keep := len(squashed) == 0 && rng.Intn(2) == 0
				for _, op := range b.order[b.head:] {
					if op.Seq >= from {
						delete(ref, op.Seq)
						if keep {
							squashed = append(squashed, op)
						}
					}
				}
				b.SquashFrom(from)
			default:
				// A redirect skips far ahead: the seqs in between are never
				// inserted, so live seqs span several table lengths.
				next += uint64(len(b.window.slots) + rng.Intn(4*len(b.window.slots)))
			}
			checkIndex(t, step, &b.window, ref, lo, next+uint64(len(b.window.slots)))
		}
	}
}

// TestSeqIndexDenseChurn exercises the table directly, against a map: a
// 16-slot table held at up to 11 live seqs (far above the half load
// Backend.Insert allows), so probe runs are long and wrap past the table's
// end, with replacement of present seqs and deletion of absent ones.
func TestSeqIndexDenseChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := newSeqIndex(8) // 16 slots
	ref := map[uint64]*Op{}
	var live []uint64
	const span, limit = 256, 11
	for step := 0; step < 40_000; step++ {
		seq := uint64(rng.Intn(span))
		if len(live) >= limit || rng.Intn(3) == 0 {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				seq = live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else if ref[seq] != nil {
				continue // keep live in step with ref
			}
			x.del(seq)
			delete(ref, seq)
		} else {
			if ref[seq] == nil {
				live = append(live, seq)
			}
			op := &Op{Seq: seq}
			x.put(seq, op)
			ref[seq] = op
		}
		checkIndex(t, step, &x, ref, 0, span)
	}
}

// TestSeqIndexOverfillPanics: inserting past FreeSlots is a caller bug
// Insert reports before the op reaches the window, so the index never holds
// more than WindowSize ops (a full table would probe forever).
func TestSeqIndexOverfillPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 8
	b := New(cfg, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overfilled window did not panic")
		}
		if b.InFlight() != 8 || b.window.occupied() != 8 {
			t.Errorf("panicked with %d ops in flight, %d indexed; want 8 and 8",
				b.InFlight(), b.window.occupied())
		}
	}()
	for seq := uint64(0); seq < 9; seq++ {
		b.Insert(&Op{Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}})
	}
}
