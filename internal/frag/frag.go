// Package frag implements the paper's fragment model (§3.1–§3.2): the
// heuristics that chop the dynamic instruction stream into fragments, the
// fragment identity used by the fragment predictor and the trace cache, and
// the fragment buffers that stage fetched fragments until rename reads them.
//
// The paper deliberately makes fragments identical to traces so the parallel
// front-end can be compared against a trace cache with no selection bias;
// this package is therefore shared by both mechanisms.
package frag

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/isa"
)

// MaxLen is the paper's maximum fragment length in instructions and
// BranchCutoff the position after which a conditional branch terminates the
// fragment; MaxBranches bounds the conditional branches a default fragment
// can contain (eight early branches plus the terminating one). These are
// the defaults — Heuristics generalizes them for the fragment-selection
// studies the paper's conclusion calls for.
const (
	MaxLen       = 16
	BranchCutoff = 8
	MaxBranches  = BranchCutoff + 1

	// AbsMaxLen is the hard upper bound on fragment length for ANY
	// heuristics: the ID's direction mask has 32 bits, so no selectable
	// fragment can exceed 32 instructions. Fixed-size per-fragment storage
	// (e.g. the simulator's recycled op arrays) is sized by this.
	AbsMaxLen = 32
)

// Heuristics parameterizes fragment selection (§6: "fragments can be longer
// and can have a larger variance in size ... further research on fragment
// selection"). The paper's heuristics are {MaxLen: 16, BranchCutoff: 8};
// larger values produce longer fragments at the cost of more direction bits
// per prediction. MaxLen is capped at 32 (the ID's direction-mask width).
type Heuristics struct {
	MaxLen       int
	BranchCutoff int
}

// DefaultHeuristics returns the paper's fragment-selection parameters.
func DefaultHeuristics() Heuristics {
	return Heuristics{MaxLen: MaxLen, BranchCutoff: BranchCutoff}
}

// Normalize clamps a (possibly zero) Heuristics to valid values: the zero
// value becomes the paper's (16, 8), and MaxLen is capped at AbsMaxLen.
func (h Heuristics) Normalize() Heuristics {
	if h.MaxLen <= 0 {
		h.MaxLen = MaxLen
	}
	if h.MaxLen > AbsMaxLen {
		h.MaxLen = AbsMaxLen
	}
	if h.BranchCutoff <= 0 {
		h.BranchCutoff = BranchCutoff
	}
	return h
}

// ID identifies a fragment the way the paper's trace predictor does: by its
// starting address and the directions of its conditional branches. Length is
// derived (the static code plus the directions determine it) and is not part
// of identity.
type ID struct {
	StartPC uint64
	BrMask  uint32 // bit i = direction of the i-th conditional branch
	NumBr   uint8  // number of conditional branches in the fragment
}

// Key packs the ID into a uint64 for hashing: word-address in the low bits,
// direction mask and branch count above. Code images are far below 2^28
// bytes, so the packing is collision-free.
func (id ID) Key() uint64 {
	return id.StartPC/isa.InstBytes | uint64(id.BrMask)<<26 | uint64(id.NumBr)<<58
}

// Zero reports whether the ID is the zero value (no fragment).
func (id ID) Zero() bool { return id == ID{} }

// String renders the ID compactly for logs and tests.
func (id ID) String() string {
	if id.Zero() {
		return "frag{}"
	}
	var dirs strings.Builder
	for i := 0; i < int(id.NumBr); i++ {
		if id.BrMask&(1<<i) != 0 {
			dirs.WriteByte('T')
		} else {
			dirs.WriteByte('N')
		}
	}
	return fmt.Sprintf("frag{%#x %s}", id.StartPC, dirs.String())
}

// Fragment is a materialized fragment: its identity, the instructions (and
// their addresses) it contains, and the static facts fetch and rename read
// from them on every use. FromCode computes those facts once: each
// instruction's register decode and the fragment's live-outs (§4.1: "the
// first time a fragment is seen, the live-outs are recorded").
type Fragment struct {
	ID       ID
	PCs      []uint64
	Insts    []isa.Inst
	Decode   []Decoded // parallel to Insts
	LiveOuts LiveOuts
}

// Decoded is one instruction's register decode: what isa's Sources, Dest
// and IsMem report for it, stored so the simulator does not switch on the
// opcode again each time the fragment is fetched.
type Decoded struct {
	Src     [2]isa.Reg // Sources, in order; Src[:NSrc] are valid
	NSrc    uint8
	Dest    isa.Reg // valid when HasDest
	HasDest bool
	Mem     bool // IsMem
}

func decode(in isa.Inst) Decoded {
	var d Decoded
	d.NSrc = uint8(len(in.Sources(d.Src[:0])))
	d.Dest, d.HasDest = in.Dest()
	d.Mem = in.IsMem()
	return d
}

// LiveOuts describes a fragment's register writes the way the live-out
// predictor stores them (§4.1): a 64-bit bitmap of registers written by the
// fragment ("live-outs"), and a bitmap marking which instruction positions
// perform the last write to some live-out register.
type LiveOuts struct {
	RegMask   uint64
	LastWrite uint32
}

// NumRegs returns the number of live-out registers (phase-1 allocations).
func (lo LiveOuts) NumRegs() int { return bits.OnesCount64(lo.RegMask) }

// LiveOutsOf scans an instruction sequence for its true live-outs. It is
// the simulator's one live-out scan: FromCode stores its result in every
// Fragment, and the rename package and the trace-driven live-out study call
// it for sequences they split themselves.
func LiveOutsOf(insts []isa.Inst) LiveOuts {
	var lo LiveOuts
	var last [isa.NumRegs]int8
	for i := range last {
		last[i] = -1
	}
	for i, in := range insts {
		if rd, ok := in.Dest(); ok {
			lo.RegMask |= 1 << rd
			last[rd] = int8(i)
		}
	}
	for _, i := range last {
		if i >= 0 {
			lo.LastWrite |= 1 << i
		}
	}
	return lo
}

// Len returns the fragment length in instructions.
func (f *Fragment) Len() int { return len(f.Insts) }

// EndsInIndirect reports whether the fragment was terminated by an indirect
// branch (return, indirect jump or indirect call).
func (f *Fragment) EndsInIndirect() bool {
	if len(f.Insts) == 0 {
		return false
	}
	return f.Insts[len(f.Insts)-1].IsIndirect()
}

// FallthroughPC returns the address the stream continues at if the fragment
// is not ended by a taken control transfer: the address after the last
// instruction.
func (f *Fragment) FallthroughPC() uint64 {
	if len(f.PCs) == 0 {
		return f.ID.StartPC
	}
	return f.PCs[len(f.PCs)-1] + isa.InstBytes
}

// Stops reports whether instruction in at 1-indexed position pos terminates
// a fragment under h: all indirect branches stop; a conditional branch
// stops if it is after the cutoff; the MaxLen-th instruction always stops.
// Halt also stops.
func (h Heuristics) Stops(in isa.Inst, pos int) bool {
	switch {
	case in.IsIndirect():
		return true
	case in.IsCondBranch() && pos > h.BranchCutoff:
		return true
	case pos >= h.MaxLen:
		return true
	case in.Op == isa.OpHalt:
		return true
	}
	return false
}

// stops applies the default heuristics.
func stops(in isa.Inst, pos int) bool { return DefaultHeuristics().Stops(in, pos) }

// CodeReader provides static code access for speculative fragment
// construction; *program.Program implements it.
type CodeReader interface {
	InstAt(pc uint64) (isa.Inst, bool)
}

// FromCode walks the static code from id.StartPC following id's predicted
// branch directions and materializes the fragment the front-end should
// fetch. Direction bits beyond id.NumBr (possible only for corrupted or
// aliased predictions) default to not-taken. The walk stops early if it
// leaves the code image, which models wrong-path fetch running into
// non-code bytes.
//
// The returned fragment's ID is canonicalized: NumBr is the number of
// conditional branches actually walked and BrMask holds exactly the
// direction bits consumed (including the terminating branch's), so the ID
// matches what Split would produce for the same instruction sequence. The
// fragment carries each instruction's decode and its live-outs, computed
// here once; every Fragment the simulator fetches, warms or restores comes
// from FromCode, through a Memo.
func FromCode(code CodeReader, id ID) *Fragment {
	return DefaultHeuristics().FromCode(code, id)
}

// FromCode is the heuristics-parameterized variant of the package-level
// FromCode.
func (h Heuristics) FromCode(code CodeReader, id ID) *Fragment {
	h = h.Normalize()
	// Walk into stack buffers, then size the fragment's slices once.
	var pcs [AbsMaxLen]uint64
	var insts [AbsMaxLen]isa.Inst
	n := 0
	f := &Fragment{ID: ID{StartPC: id.StartPC}}
	pc := id.StartPC
	br := 0
	for pos := 1; pos <= h.MaxLen; pos++ {
		in, ok := code.InstAt(pc)
		if !ok {
			break
		}
		pcs[n], insts[n] = pc, in
		n++
		taken := false
		if in.IsCondBranch() {
			taken = br < int(id.NumBr) && id.BrMask&(1<<br) != 0
			if taken {
				f.ID.BrMask |= 1 << br
			}
			br++
		}
		if h.Stops(in, pos) {
			break
		}
		switch {
		case in.IsCondBranch():
			if taken {
				pc = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
			} else {
				pc += isa.InstBytes
			}
		case in.IsDirectJump():
			pc = uint64(in.Imm) * isa.InstBytes
		default:
			pc += isa.InstBytes
		}
	}
	f.ID.NumBr = uint8(br)
	f.PCs = make([]uint64, n)
	copy(f.PCs, pcs[:n])
	f.Insts = make([]isa.Inst, n)
	copy(f.Insts, insts[:n])
	f.Decode = make([]Decoded, n)
	for i, in := range f.Insts {
		f.Decode[i] = decode(in)
	}
	f.LiveOuts = LiveOutsOf(f.Insts)
	return f
}

// Memo builds each fragment of one program under one set of heuristics
// once. FromCode is pure and Fragments are immutable, so every consumer
// that shares a memo shares its fragments: a detailed run's fetch stream, a
// functional warmer's prediction loop and the trace-cache lines it
// restores, and, in a sampled cell, the warmer and every detailed window
// (sim.Config.Frags). A Memo is not safe for concurrent use.
type Memo struct {
	code  CodeReader
	heur  Heuristics
	frags map[ID]*Fragment
}

// NewMemo returns an empty memo over code under h (normalized).
func NewMemo(code CodeReader, h Heuristics) *Memo {
	return &Memo{code: code, heur: h.Normalize(), frags: make(map[ID]*Fragment, 256)}
}

// Get returns the fragment for id, building it with FromCode on first use.
func (m *Memo) Get(id ID) *Fragment {
	if f, ok := m.frags[id]; ok {
		return f
	}
	f := m.heur.FromCode(m.code, id)
	m.frags[id] = f
	return f
}

// Put makes id resolve to f from now on, in place of what FromCode builds.
// The simulator never calls it; a test plants a fragment the code would not
// produce to force a divergence the true path never shows.
func (m *Memo) Put(id ID, f *Fragment) { m.frags[id] = f }

// Heuristics returns the normalized heuristics the memo builds under.
func (m *Memo) Heuristics() Heuristics { return m.heur }

// For reports whether the memo builds code's fragments under h.
func (m *Memo) For(code CodeReader, h Heuristics) bool {
	return m.code == code && m.heur == h.Normalize()
}

// Len returns how many fragments the memo holds: one build per distinct ID
// asked for.
func (m *Memo) Len() int { return len(m.frags) }

// DirectionOf returns the canonical direction bit (bit index i for the i-th
// conditional branch) consumed for the branch at instruction index idx, and
// whether that instruction is a conditional branch.
func (f *Fragment) DirectionOf(idx int) (taken, ok bool) {
	br := 0
	for i, in := range f.Insts {
		if !in.IsCondBranch() {
			continue
		}
		if i == idx {
			return f.ID.BrMask&(1<<br) != 0, true
		}
		br++
	}
	return false, false
}

// Dyn is one instruction of the true dynamic stream the splitter consumes:
// the emulator's block record, so a block the oracle fills is split in
// place.
type Dyn = emu.Dyn

// Split consumes the longest prefix of stream that forms one fragment under
// the selection heuristics and returns its length and identity. An empty
// stream returns n == 0.
func Split(stream []Dyn) (n int, id ID) {
	return DefaultHeuristics().Split(stream)
}

// Split is the heuristics-parameterized variant of the package-level Split.
func (h Heuristics) Split(stream []Dyn) (n int, id ID) {
	h = h.Normalize()
	if len(stream) == 0 {
		return 0, ID{}
	}
	id.StartPC = stream[0].PC
	for i, d := range stream {
		pos := i + 1
		if d.Inst.IsCondBranch() && id.NumBr < 32 {
			if d.Taken {
				id.BrMask |= 1 << id.NumBr
			}
			id.NumBr++
		}
		if h.Stops(d.Inst, pos) || pos == len(stream) {
			return pos, id
		}
	}
	return len(stream), id
}
