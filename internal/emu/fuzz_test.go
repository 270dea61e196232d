package emu

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// refState is an independent reference interpreter for the synthetic ISA,
// deliberately written in a different style from Machine (word-addressed map
// memory instead of byte segments, flat next-PC computation) so the fuzz
// differential catches semantic drift in either implementation.
type refState struct {
	pc     uint64
	regs   [isa.NumIntRegs]uint32
	fp     [isa.NumFPRegs]float64
	mem    map[uint64]uint32 // word-addressed; zero default matches zero-init segments
	halted bool

	// What the last step executed: whether it was a taken conditional
	// branch, and its effective byte address (0 unless it accessed memory).
	taken bool
	ea    uint64
}

func newRef(p *program.Program) *refState {
	return &refState{pc: p.EntryPC, mem: make(map[uint64]uint32)}
}

func (r *refState) readInt(reg isa.Reg) uint32 {
	if reg == isa.RegZero || reg >= isa.FPBase {
		return 0
	}
	return r.regs[reg]
}

func (r *refState) writeInt(reg isa.Reg, v uint32) {
	if reg != isa.RegZero {
		r.regs[reg] = v
	}
}

// step executes one instruction. It returns false when the interpreter is
// stuck (PC outside the code image, or an invalid opcode) — the same
// conditions that make Machine.Step return an error.
func (r *refState) step(p *program.Program) bool {
	if r.halted {
		return false
	}
	in, ok := p.InstAt(r.pc)
	if !ok || in.Op == isa.OpInvalid {
		return false
	}
	a := r.readInt(in.Rs1)
	b := r.readInt(in.Rs2)
	next := r.pc + isa.InstBytes
	r.taken, r.ea = false, 0

	switch in.Op {
	case isa.OpAdd:
		r.writeInt(in.Rd, a+b)
	case isa.OpSub:
		r.writeInt(in.Rd, a-b)
	case isa.OpAnd:
		r.writeInt(in.Rd, a&b)
	case isa.OpOr:
		r.writeInt(in.Rd, a|b)
	case isa.OpXor:
		r.writeInt(in.Rd, a^b)
	case isa.OpSlt:
		var v uint32
		if int32(a) < int32(b) {
			v = 1
		}
		r.writeInt(in.Rd, v)
	case isa.OpSll:
		r.writeInt(in.Rd, a<<(b&31))
	case isa.OpSrl:
		r.writeInt(in.Rd, a>>(b&31))
	case isa.OpSra:
		r.writeInt(in.Rd, uint32(int32(a)>>(b&31)))
	case isa.OpMul:
		r.writeInt(in.Rd, a*b)
	case isa.OpAddi:
		r.writeInt(in.Rd, a+uint32(in.Imm))
	case isa.OpAndi:
		r.writeInt(in.Rd, a&uint32(in.Imm))
	case isa.OpOri:
		r.writeInt(in.Rd, a|uint32(in.Imm))
	case isa.OpXori:
		r.writeInt(in.Rd, a^uint32(in.Imm))
	case isa.OpSlti:
		var v uint32
		if int32(a) < in.Imm {
			v = 1
		}
		r.writeInt(in.Rd, v)
	case isa.OpSlli:
		r.writeInt(in.Rd, a<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		r.writeInt(in.Rd, a>>(uint32(in.Imm)&31))
	case isa.OpLui:
		r.writeInt(in.Rd, uint32(in.Imm)<<isa.LuiShift)
	case isa.OpLw:
		r.ea = uint64(a + uint32(in.Imm))
		r.writeInt(in.Rd, r.mem[r.ea&^3])
	case isa.OpSw:
		r.ea = uint64(a + uint32(in.Imm))
		r.mem[r.ea&^3] = b
	case isa.OpLf:
		r.ea = uint64(a + uint32(in.Imm))
		r.fp[in.Rd-isa.FPBase] = float64(r.mem[r.ea&^3])
	case isa.OpSf:
		r.ea = uint64(a + uint32(in.Imm))
		r.mem[r.ea&^3] = uint32(int64(r.fp[in.Rs2-isa.FPBase]))
	case isa.OpFadd:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] + r.fp[in.Rs2-isa.FPBase]
	case isa.OpFsub:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] - r.fp[in.Rs2-isa.FPBase]
	case isa.OpFmul:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] * r.fp[in.Rs2-isa.FPBase]
	case isa.OpFneg:
		r.fp[in.Rd-isa.FPBase] = -r.fp[in.Rs1-isa.FPBase]
	case isa.OpBeq:
		if a == b {
			r.taken, next = true, branchTarget(r.pc, in.Imm)
		}
	case isa.OpBne:
		if a != b {
			r.taken, next = true, branchTarget(r.pc, in.Imm)
		}
	case isa.OpBlt:
		if int32(a) < int32(b) {
			r.taken, next = true, branchTarget(r.pc, in.Imm)
		}
	case isa.OpBge:
		if int32(a) >= int32(b) {
			r.taken, next = true, branchTarget(r.pc, in.Imm)
		}
	case isa.OpJ:
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJal:
		r.writeInt(isa.RegLink, uint32(r.pc+isa.InstBytes))
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJr:
		next = uint64(a)
	case isa.OpJalr:
		r.writeInt(in.Rd, uint32(r.pc+isa.InstBytes))
		next = uint64(a)
	case isa.OpHalt:
		r.halted = true
		next = r.pc
	default:
		return false
	}
	r.pc = next
	return true
}

func branchTarget(pc uint64, imm int32) uint64 {
	return uint64(int64(pc) + isa.InstBytes + int64(imm)*isa.InstBytes)
}

// sanitizeInsts turns an arbitrary decoded instruction stream into a valid
// self-contained program, mirroring the invariants the generator guarantees
// (and that program.Validate enforces): no invalid opcodes, direct control
// transfers inside the image, integer destinations in the integer bank, FP
// operands in the FP bank, and a final halt.
func sanitizeInsts(insts []isa.Inst) []isa.Inst {
	const maxInsts = 512
	if len(insts) > maxInsts {
		insts = insts[:maxInsts]
	}
	n := len(insts) + 1 // +1 for the trailing halt
	out := make([]isa.Inst, 0, n)
	for i, in := range insts {
		if in.Op == isa.OpInvalid || int(in.Op) >= isa.NumOps {
			in = isa.Inst{Op: isa.OpAddi, Rd: in.Rd & 31, Rs1: in.Rs1 & 31, Imm: in.Imm}
		}
		switch in.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt,
			isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpMul,
			isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSlti,
			isa.OpSlli, isa.OpSrli, isa.OpLui, isa.OpLw, isa.OpJalr:
			in.Rd &= 31 // integer destination
		case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFneg:
			in.Rd |= isa.FPBase
			in.Rs1 |= isa.FPBase
			in.Rs2 |= isa.FPBase
		case isa.OpLf:
			in.Rd |= isa.FPBase
		case isa.OpSf:
			in.Rs2 |= isa.FPBase
		case isa.OpJ, isa.OpJal:
			tgt := int(in.Imm) % n
			if tgt < 0 {
				tgt += n
			}
			in.Imm = program.WordTarget(tgt)
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			tgt := (i + 1 + int(in.Imm)) % n
			if tgt < 0 {
				tgt += n
			}
			in.Imm = int32(tgt - i - 1)
		}
		out = append(out, in)
	}
	return append(out, isa.Inst{Op: isa.OpHalt})
}

// FuzzEmuVsInterp runs the emulator and the reference interpreter in
// lockstep over fuzz-generated programs and requires identical control flow,
// branch outcomes, effective addresses and integer register state at every
// step. It then drives the block kernel, ReadBlock, in fuzz-chosen block
// sizes against a fresh reference: every instruction's PC, instruction,
// direction and effective address must match, and at each block's end so
// must the next PC, the registers, and the halt or fault state.
func FuzzEmuVsInterp(f *testing.F) {
	// Seed with real generated code (the suite's miniature benchmark at
	// two scales) and a couple of hand-written kernels.
	for i, scale := range []float64{1, 0.4} {
		p, err := program.Build(program.TestSpec().Scaled(scale))
		if err != nil {
			f.Fatal(err)
		}
		img := p.Image
		if len(img) > 2048 {
			img = img[:2048]
		}
		f.Add(img, []byte{byte(7 + 30*i), 1, 200, 64})
	}
	loop := []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Imm: 5},
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 3},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: -3},
		{Op: isa.OpSw, Rs1: 0, Rs2: 2, Imm: 64},
		{Op: isa.OpLw, Rd: 3, Rs1: 0, Imm: 64},
		{Op: isa.OpHalt},
	}
	img, err := isa.EncodeAll(loop)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img, []byte{2, 3})

	f.Fuzz(func(t *testing.T, raw, sizes []byte) {
		insts := sanitizeInsts(isa.DecodeImage(raw))
		p, err := program.FromInsts("fuzz", insts, 0)
		if err != nil {
			t.Fatalf("sanitized program rejected: %v", err)
		}
		m := New(p)
		ref := newRef(p)

		const maxSteps = 4096
		for step := 0; step < maxSteps; step++ {
			if m.Halted() {
				if !ref.halted {
					t.Fatalf("step %d: emu halted, reference did not (ref pc %#x)", step, ref.pc)
				}
				break
			}
			pc := m.PC()
			d, err := m.Step()
			ok := ref.step(p)
			if err != nil {
				if ok {
					t.Fatalf("step %d: emu error (%v) but reference stepped past pc %#x", step, err, pc)
				}
				break
			}
			if !ok {
				t.Fatalf("step %d: reference stuck at pc %#x but emu executed %v", step, pc, d.Inst)
			}
			if d.PC != pc || d.Seq != uint64(step) {
				t.Fatalf("step %d at pc %#x: record says seq %d pc %#x", step, pc, d.Seq, d.PC)
			}
			if d.NextPC != ref.pc {
				t.Fatalf("step %d at pc %#x (%v): next PC emu %#x, reference %#x",
					step, pc, d.Inst, d.NextPC, ref.pc)
			}
			if d.Taken != ref.taken || d.EA != ref.ea {
				t.Fatalf("step %d at pc %#x (%v): taken/EA emu %v %#x, reference %v %#x",
					step, pc, d.Inst, d.Taken, d.EA, ref.taken, ref.ea)
			}
			checkRegs(t, step, m, ref)
		}
		if m.Halted() != ref.halted {
			t.Fatalf("final halt state diverged: emu %v, reference %v", m.Halted(), ref.halted)
		}

		// The block kernel, in fuzz-chosen block sizes.
		m, ref = New(p), newRef(p)
		var dyn [64]Dyn
		var ea [64]uint64
		for b, done := 0, 0; done < maxSteps && !m.Halted(); b++ {
			k := 1
			if len(sizes) > 0 {
				k += int(sizes[b%len(sizes)]) % len(dyn)
			}
			n, err := m.ReadBlock(dyn[:k], ea[:k])
			for j := 0; j < n; j++ {
				pc := ref.pc
				in, _ := p.InstAt(pc)
				if !ref.step(p) {
					t.Fatalf("block %d +%d: reference stuck at pc %#x but the kernel executed %v", b, j, pc, dyn[j].Inst)
				}
				if got := dyn[j]; got.PC != pc || got.Inst != in || got.Taken != ref.taken || ea[j] != ref.ea {
					t.Fatalf("block %d +%d: kernel %+v ea %#x, reference pc %#x %v taken %v ea %#x",
						b, j, got, ea[j], pc, in, ref.taken, ref.ea)
				}
			}
			done += n
			switch {
			case err != nil:
				// A fault: the kernel stops at the faulting PC, where the
				// reference is stuck too.
				if m.Halted() || m.PC() != ref.pc || ref.step(p) {
					t.Fatalf("block %d: kernel error %v at pc %#x, reference at %#x not stuck", b, err, m.PC(), ref.pc)
				}
			case n < k && !(m.Halted() && ref.halted):
				t.Fatalf("block %d: short block (%d of %d) without a halt (emu %v, reference %v)",
					b, n, k, m.Halted(), ref.halted)
			case m.Halted() != ref.halted || m.PC() != ref.pc:
				t.Fatalf("block %d end: emu halted %v pc %#x, reference %v %#x", b, m.Halted(), m.PC(), ref.halted, ref.pc)
			}
			if m.ICount() != uint64(done) {
				t.Fatalf("block %d end: ICount %d, executed %d", b, m.ICount(), done)
			}
			checkRegs(t, done, m, ref)
			if err != nil {
				break
			}
		}
		if m.Halted() {
			if n, err := m.ReadBlock(dyn[:], ea[:]); n != 0 || !errors.Is(err, ErrHalted) {
				t.Fatalf("ReadBlock after halt: %d, %v; want 0, ErrHalted", n, err)
			}
		}
	})
}

// checkRegs requires the emulator's and the reference's integer registers to
// agree after step.
func checkRegs(t *testing.T, step int, m *Machine, ref *refState) {
	t.Helper()
	for r := isa.Reg(0); r < isa.NumIntRegs; r++ {
		if got, want := m.IntReg(r), ref.readInt(r); got != want {
			t.Fatalf("after step %d (pc %#x): register %v emu %#x, reference %#x", step, m.PC(), r, got, want)
		}
	}
}
