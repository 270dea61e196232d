// Package emu is the functional emulator for the synthetic ISA. It executes
// a generated program instruction by instruction and produces the true
// dynamic instruction stream — the oracle the timing simulator measures
// itself against: the front-end's predictions are compared to this stream,
// and divergences drive wrong-path fetch and recovery, exactly as the
// paper's execution-driven simulator did on top of SimpleScalar's
// instruction semantics.
package emu

import (
	"errors"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// ErrHalted is returned by ReadBlock and Step once the program has
// executed OpHalt.
var ErrHalted = errors.New("emu: program halted")

// Oracle is the dynamic-stream source the timing simulator consumes: the
// live Machine, or any replacement producing the identical stream (e.g. an
// artifact-cache tape replayer). ReadBlock fills dyn with the next executed
// instructions and ea with their effective addresses, as Machine.ReadBlock
// does, and comes back short only after a halt or with an error, so one
// call fills a block; Halted reports that the program has executed OpHalt.
// Implementations must be bit-exact with Machine: the simulator's
// determinism guarantees are defined against its stream.
type Oracle interface {
	ReadBlock(dyn []Dyn, ea []uint64) (int, error)
	Halted() bool
}

// Dyn is one executed instruction of the true dynamic stream as blocks
// carry it: its address, the instruction, and for a conditional branch
// whether it was taken. Effective addresses travel beside it, in their own
// slice, because only memory ops have one.
type Dyn struct {
	PC    uint64
	Inst  isa.Inst
	Taken bool
}

// DynInst is one executed instruction with its full context, as Step
// returns it.
type DynInst struct {
	Seq    uint64   // dynamic sequence number, starting at 0
	PC     uint64   // byte address of the instruction
	Inst   isa.Inst // the decoded instruction
	NextPC uint64   // address of the next executed instruction
	Taken  bool     // conditional branches: whether the branch was taken
	EA     uint64   // memory ops: effective byte address
}

// Machine is the architectural state of one running program.
type Machine struct {
	prog *program.Program

	pc      uint64
	intRegs [isa.NumIntRegs]uint32
	fpRegs  [isa.NumFPRegs]float64

	data  []byte // data segment at program.DataBase
	stack []byte // stack segment, covers [StackBase-StackSize, StackBase)

	// stray holds accesses outside the mapped segments (should not occur
	// on the correct path; kept so wrong specs fail loudly in tests
	// rather than silently corrupting state).
	stray map[uint64]uint32

	icount uint64
	halted bool
}

// New creates a machine ready to execute p from its entry point. The data
// segment is copied so multiple machines can share one Program.
func New(p *program.Program) *Machine {
	m := &Machine{
		prog:  p,
		pc:    p.EntryPC,
		data:  make([]byte, len(p.Data)),
		stack: make([]byte, program.StackSize),
	}
	copy(m.data, p.Data)
	return m
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() uint64 { return m.pc }

// Halted reports whether the program has executed OpHalt.
func (m *Machine) Halted() bool { return m.halted }

// ICount returns the number of instructions executed so far.
func (m *Machine) ICount() uint64 { return m.icount }

// IntReg returns the current value of integer register r. FP registers and
// r0 read as zero, so instruction decoding never needs to special-case the
// register bank before reading.
func (m *Machine) IntReg(r isa.Reg) uint32 {
	if r >= isa.FPBase {
		return 0
	}
	return m.intRegs[r] // r0 is never written, so it reads as zero
}

// StrayAccesses reports how many memory accesses fell outside the mapped
// data and stack segments (always zero for generator-produced programs).
func (m *Machine) StrayAccesses() int { return len(m.stray) }

func (m *Machine) setInt(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		m.intRegs[r] = v
	}
}

// Step executes one instruction and returns its dynamic record: a
// one-instruction block through ReadBlock.
func (m *Machine) Step() (DynInst, error) {
	seq := m.icount
	var dyn [1]Dyn
	var ea [1]uint64
	if _, err := m.ReadBlock(dyn[:], ea[:]); err != nil {
		return DynInst{}, err
	}
	d := &dyn[0]
	return DynInst{Seq: seq, PC: d.PC, Inst: d.Inst, NextPC: m.pc, Taken: d.Taken, EA: ea[0]}, nil
}

// ReadBlock is the emulator's one execution kernel. It executes up to
// len(dyn) instructions, writing each one's PC, instruction and branch
// direction into dyn and its effective address (0 unless it accesses
// memory) into ea, which must be at least as long, and returns how many it
// executed. It stops after a halt. On a fault — a PC outside the code image
// or an invalid opcode — it returns the instructions executed before the
// faulting one, with the error; the machine stays at the faulting PC. On a
// halted machine it returns 0 and ErrHalted.
func (m *Machine) ReadBlock(dyn []Dyn, ea []uint64) (int, error) {
	if m.halted {
		return 0, ErrHalted
	}
	ea = ea[:len(dyn)]
	p := m.prog
	pc := m.pc
	n := 0
	var err error
loop:
	for n < len(dyn) {
		in, ok := p.InstAt(pc)
		if !ok {
			err = fmt.Errorf("emu: PC %#x outside code image", pc)
			break
		}
		next := pc + isa.InstBytes
		taken := false
		var addr uint64

		rs1 := m.IntReg(in.Rs1)
		rs2 := m.IntReg(in.Rs2)

		switch in.Op {
		case isa.OpAdd:
			m.setInt(in.Rd, rs1+rs2)
		case isa.OpSub:
			m.setInt(in.Rd, rs1-rs2)
		case isa.OpAnd:
			m.setInt(in.Rd, rs1&rs2)
		case isa.OpOr:
			m.setInt(in.Rd, rs1|rs2)
		case isa.OpXor:
			m.setInt(in.Rd, rs1^rs2)
		case isa.OpSlt:
			m.setInt(in.Rd, boolToU32(int32(rs1) < int32(rs2)))
		case isa.OpSll:
			m.setInt(in.Rd, rs1<<(rs2&31))
		case isa.OpSrl:
			m.setInt(in.Rd, rs1>>(rs2&31))
		case isa.OpSra:
			m.setInt(in.Rd, uint32(int32(rs1)>>(rs2&31)))
		case isa.OpMul:
			m.setInt(in.Rd, rs1*rs2)

		case isa.OpAddi:
			m.setInt(in.Rd, rs1+uint32(in.Imm))
		case isa.OpAndi:
			m.setInt(in.Rd, rs1&uint32(in.Imm))
		case isa.OpOri:
			m.setInt(in.Rd, rs1|uint32(in.Imm))
		case isa.OpXori:
			m.setInt(in.Rd, rs1^uint32(in.Imm))
		case isa.OpSlti:
			m.setInt(in.Rd, boolToU32(int32(rs1) < in.Imm))
		case isa.OpSlli:
			m.setInt(in.Rd, rs1<<(uint32(in.Imm)&31))
		case isa.OpSrli:
			m.setInt(in.Rd, rs1>>(uint32(in.Imm)&31))
		case isa.OpLui:
			m.setInt(in.Rd, uint32(in.Imm)<<isa.LuiShift)

		case isa.OpLw:
			addr = uint64(rs1 + uint32(in.Imm))
			m.setInt(in.Rd, m.loadWord(addr))
		case isa.OpSw:
			addr = uint64(rs1 + uint32(in.Imm))
			m.storeWord(addr, rs2)
		case isa.OpLf:
			addr = uint64(rs1 + uint32(in.Imm))
			m.fpRegs[in.Rd-isa.FPBase] = float64(m.loadWord(addr))
		case isa.OpSf:
			addr = uint64(rs1 + uint32(in.Imm))
			m.storeWord(addr, uint32(int64(m.fpRegs[in.Rs2-isa.FPBase])))

		case isa.OpFadd:
			m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) + m.fp(in.Rs2)
		case isa.OpFsub:
			m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) - m.fp(in.Rs2)
		case isa.OpFmul:
			m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) * m.fp(in.Rs2)
		case isa.OpFneg:
			m.fpRegs[in.Rd-isa.FPBase] = -m.fp(in.Rs1)

		case isa.OpBeq:
			taken = rs1 == rs2
		case isa.OpBne:
			taken = rs1 != rs2
		case isa.OpBlt:
			taken = int32(rs1) < int32(rs2)
		case isa.OpBge:
			taken = int32(rs1) >= int32(rs2)

		case isa.OpJ:
			next = uint64(in.Imm) * isa.InstBytes
		case isa.OpJal:
			m.setInt(isa.RegLink, uint32(pc+isa.InstBytes))
			next = uint64(in.Imm) * isa.InstBytes
		case isa.OpJr:
			next = uint64(rs1)
		case isa.OpJalr:
			m.setInt(in.Rd, uint32(pc+isa.InstBytes))
			next = uint64(rs1)

		case isa.OpHalt:
			m.halted = true
			next = pc

		default:
			err = fmt.Errorf("emu: invalid opcode at PC %#x", pc)
			break loop
		}

		if taken {
			next = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
		}
		// Field by field: a composite literal is built on the stack and
		// copied with loads wider than its stores, which stalls.
		d := &dyn[n]
		d.PC, d.Inst, d.Taken = pc, in, taken
		ea[n] = addr
		pc = next
		n++
		if in.Op == isa.OpHalt {
			break
		}
	}
	m.pc = pc
	m.icount += uint64(n)
	return n, err
}

func (m *Machine) fp(r isa.Reg) float64 { return m.fpRegs[r-isa.FPBase] }

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// segment resolves an address to a backing slice and offset, or nil if the
// address is outside the data and stack segments.
func (m *Machine) segment(ea uint64) ([]byte, int) {
	switch {
	case ea >= program.DataBase && ea+4 <= program.DataBase+uint64(len(m.data)):
		return m.data, int(ea - program.DataBase)
	case ea >= program.StackBase-program.StackSize && ea+4 <= program.StackBase:
		return m.stack, int(ea - (program.StackBase - program.StackSize))
	}
	return nil, 0
}

func (m *Machine) loadWord(ea uint64) uint32 {
	ea &^= 3
	if seg, off := m.segment(ea); seg != nil {
		return uint32(seg[off]) | uint32(seg[off+1])<<8 | uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24
	}
	if m.stray == nil {
		return 0
	}
	return m.stray[ea]
}

func (m *Machine) storeWord(ea uint64, v uint32) {
	ea &^= 3
	if seg, off := m.segment(ea); seg != nil {
		seg[off] = byte(v)
		seg[off+1] = byte(v >> 8)
		seg[off+2] = byte(v >> 16)
		seg[off+3] = byte(v >> 24)
		return
	}
	if m.stray == nil {
		m.stray = make(map[uint64]uint32)
	}
	m.stray[ea] = v
}

// Run executes up to maxInsts instructions (or until halt) and returns the
// number executed. It is the convenience used by tests and tools that do
// not need the per-instruction stream.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	var dyn [256]Dyn
	var ea [256]uint64
	var n uint64
	for n < maxInsts && !m.halted {
		k, err := m.ReadBlock(dyn[:min(maxInsts-n, uint64(len(dyn)))], ea[:])
		n += uint64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

var _ Oracle = (*Machine)(nil)
