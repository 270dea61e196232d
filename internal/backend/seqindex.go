package backend

// seqIndex maps the seqs of in-flight ops to the ops: the back-end's only
// question of it is whether a producer seq is still in the window. It is an
// open-addressed table — multiplicative hash, linear probing, backward-shift
// deletion (no tombstones, so probe runs never lengthen with churn) — sized
// once to at least twice the window. Backend.Insert refuses to overfill the
// window, so the load factor stays at or below one half and a probe always
// meets an empty slot.
//
// Membership is exactly a map's: an op is present iff it was inserted and
// has not been deleted since, and re-inserting a present seq replaces its
// op. Seqs are never reused after a squash, so the live seqs can span far
// more than the table; a direct-mapped seq&mask table would not be exact.
type seqIndex struct {
	slots []seqSlot
	mask  uint64
	shift uint // 64 - log2(len(slots)): the hash keeps the product's top bits
}

// seqSlot is one table entry; op == nil marks it empty. The seq is kept
// inline so a probe does not dereference the op.
type seqSlot struct {
	seq uint64
	op  *Op
}

// newSeqIndex returns an index sized for window in-flight ops.
func newSeqIndex(window int) seqIndex {
	bits := uint(1)
	for 1<<bits < 2*window {
		bits++
	}
	return seqIndex{
		slots: make([]seqSlot, 1<<bits),
		mask:  1<<bits - 1,
		shift: 64 - bits,
	}
}

// home is seq's preferred slot (Fibonacci hashing).
func (x *seqIndex) home(seq uint64) uint64 {
	return seq * 0x9e3779b97f4a7c15 >> x.shift
}

// get returns the op with the given seq, or nil when none is in flight.
func (x *seqIndex) get(seq uint64) *Op {
	for i := x.home(seq); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.op == nil || s.seq == seq {
			return s.op
		}
	}
}

// put inserts op under seq, replacing any op already there.
func (x *seqIndex) put(seq uint64, op *Op) {
	for i := x.home(seq); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.op == nil {
			*s = seqSlot{seq: seq, op: op}
			return
		}
		if s.seq == seq {
			s.op = op
			return
		}
	}
}

// del removes seq if present. The hole is refilled by shifting back every
// later entry of the probe run that may legally occupy it, so lookups never
// meet a gap before their key.
func (x *seqIndex) del(seq uint64) {
	i := x.home(seq)
	for ; ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.op == nil {
			return
		}
		if s.seq == seq {
			break
		}
	}
	for j := (i + 1) & x.mask; x.slots[j].op != nil; j = (j + 1) & x.mask {
		// The entry at j may move into the hole at i iff i lies on its
		// probe path, i.e. it is at least as far from its home as from i.
		if (j-x.home(x.slots[j].seq))&x.mask >= (j-i)&x.mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = seqSlot{}
}
