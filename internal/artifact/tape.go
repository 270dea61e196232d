// Package artifact is the cross-cell workload reuse layer: a
// content-addressed, concurrency-safe cache of the expensive inputs a sweep
// cell needs — built program images, oracle tapes of the emulator's dynamic
// stream, and union warm packs — shared read-only across a sweep's
// workers so a multi-config sweep pays each workload's functional cost once
// instead of once per cell.
package artifact

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync/atomic"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TapeSlack is how many instructions beyond a cell's commit budget a tape
// records. The stream's fetch machinery reads ahead of the commit point —
// bounded by the backend window (256), the fragment buffers (16 × 32
// instructions) and the stream's oracle lookahead (128 instructions) — so
// the slack covers the deepest possible read-ahead many times over. A
// reader that outruns the tape anyway degrades gracefully to live emulation
// (see Reader.ReadBlock).
const TapeSlack = 8192

// IndexStride is how many instructions separate consecutive index blocks in
// a recording. Seek jumps to the nearest preceding block in O(1) and decodes
// at most IndexStride-1 instructions forward, so positioning a reader
// anywhere in a tape costs a constant bounded by the stride — not a replay
// from instruction zero. The stride trades index footprint (32 bytes per
// block, ~0.008 B/inst) against that decode bound.
const IndexStride = 4096

// seekPoint is one index block: the complete replay-cursor state as of the
// instruction whose sequence index is a multiple of IndexStride.
type seekPoint struct {
	pc     uint64 // next PC at this point
	bitPos uint64 // taken bits consumed
	auxOff int    // aux bytes consumed
	prevEA uint64 // last memory effective address seen
}

// recordBlock is how many instructions each block of Record's ring holds.
// It divides IndexStride, so a block starts an index stride exactly when the
// count it starts at is a multiple of IndexStride, and every stride gets its
// seek point.
const recordBlock = IndexStride

// recordDepth is how many blocks Record's ring holds. With two, the emulator
// and the encoder wait on each other at nearly every block; with four,
// either stage can run ahead over the other's slower blocks (EXPERIMENTS.md,
// "Tapes recorded on two cores").
const recordDepth = 4

// recordedBlock is one slot of Record's ring: a run of the true stream the
// emulator executed, with what the encoder needs of the machine after it.
type recordedBlock struct {
	dyn    []emu.Dyn
	ea     []uint64
	n      int    // instructions filled
	pc     uint64 // the machine's PC after the block: the target of an indirect jump that ends it
	halted bool   // the block ends at OpHalt
	err    error  // the emulator's fault, which ends the recording
}

// The tape classes: what a recording stores for an instruction.
const (
	classNone     uint8 = iota // nothing: it replays from the code image
	classCond                  // one taken bit
	classIndirect              // the target PC, as a uvarint
	classMem                   // the effective-address delta, as a zigzag varint
)

// tapeClass maps each opcode to its tape class, so Record classifies an
// instruction with one load.
var tapeClass = func() (c [256]uint8) {
	for op := range isa.NumOps {
		switch in := (isa.Inst{Op: isa.Op(op)}); {
		case in.IsCondBranch():
			c[op] = classCond
		case in.IsIndirect():
			c[op] = classIndirect
		case in.IsMem():
			c[op] = classMem
		}
	}
	return c
}()

// Tape is a compact recording of a program's true dynamic instruction
// stream, replayable as an emu.Oracle. Only the dynamic information that
// cannot be reconstructed from the static code image is stored:
//
//   - one bit per conditional branch (taken/not-taken),
//   - a uvarint per indirect jump (the target PC),
//   - a zigzag-varint per memory op (effective-address delta from the
//     previous memory op).
//
// Everything else — opcodes, immediates, fall-through and direct-jump
// targets — replays from the shared Program, so the typical instruction
// costs zero tape bytes and the stream averages well under one byte per
// instruction. Record encodes a tape on its calling goroutine alone, while
// its emulator goroutine only fills blocks, so tapes are immutable once
// Record returns and safe to share across any number of concurrent Readers.
type Tape struct {
	prog    *program.Program
	startPC uint64
	count   uint64 // recorded instructions
	halted  bool   // the recording ended at OpHalt (vs. the budget)

	taken []byte // packed taken bits, one per conditional branch
	aux   []byte // varint stream: indirect targets and EA deltas in program order

	// index holds one seekPoint per IndexStride instructions (index[i] is
	// the cursor state just before instruction i*IndexStride), giving Seek
	// its O(1) block jump.
	index []seekPoint

	// runs is the code's static run structure, which ReadRun reads.
	runs *runTable

	// fallbackSteps counts instructions served by the live-emulation
	// fallback across all Readers of this tape (tape exhausted before the
	// consumer was done). sink, when set by the owning cache, aggregates
	// the same count cache-wide.
	fallbackSteps atomic.Int64
	sink          *atomic.Int64
}

// Record executes p on a fresh emulator for up to maxInsts instructions (or
// until halt) and returns the recording. It is a two-stage pipeline over a
// ring of recordDepth blocks: an emulator goroutine fills each free block
// with emu.Machine.ReadBlock and hands it on, while the calling goroutine
// encodes the filled blocks in order and hands each one back. The two stages
// overlap on two cores, and the tape is the same byte for byte as encoding
// each block right after executing it. A fault ends the recording with the
// emulator's error, and a panic on the emulator goroutine is raised again
// here with that goroutine's stack. No goroutine outlives Record.
func Record(p *program.Program, maxInsts uint64) (*Tape, error) {
	// The channels hold every block of the ring, so handing a block on
	// never blocks; the emulator waits only for a free block.
	free := make(chan *recordedBlock, recordDepth)
	full := make(chan *recordedBlock, recordDepth)
	size := min(maxInsts, recordBlock)
	for range recordDepth {
		free <- &recordedBlock{dyn: make([]emu.Dyn, size), ea: make([]uint64, size)}
	}
	done := make(chan struct{})
	var crash any // the emulator's panic, set before it closes full
	go emulate(p, maxInsts, free, full, done, &crash)
	defer func() {
		// Stop the emulator and wait until it has closed full, so that it
		// outlives Record on no return path, a panic included.
		close(done)
		for range full {
		}
	}()

	// The run table is built while the emulator fills the first block.
	t := &Tape{prog: p, startPC: p.EntryPC, runs: newRunTable(p)}
	var bitBuf byte
	var bitN uint
	var bits uint64 // total taken bits recorded
	var prevEA uint64
	for blk := range full {
		if blk.err != nil {
			return nil, fmt.Errorf("artifact: recording %s: %w", p.Name, blk.err)
		}
		dyn, ea, n := blk.dyn, blk.ea, blk.n
		if t.count%IndexStride == 0 {
			t.index = append(t.index, seekPoint{
				pc: dyn[0].PC, bitPos: bits, auxOff: len(t.aux), prevEA: prevEA,
			})
		}
		for j := range n {
			d := &dyn[j]
			switch tapeClass[d.Inst.Op] {
			case classCond:
				var b byte // the direction is data: set it without a branch
				if d.Taken {
					b = 1
				}
				bitBuf |= b << bitN
				bits++
				if bitN++; bitN == 8 {
					t.taken = append(t.taken, bitBuf)
					bitBuf, bitN = 0, 0
				}
			case classIndirect:
				// The target is the next instruction's PC; the block's
				// last instruction is followed by the machine's PC.
				next := blk.pc
				if j+1 < n {
					next = dyn[j+1].PC
				}
				t.aux = binary.AppendUvarint(t.aux, next)
			case classMem:
				t.aux = binary.AppendVarint(t.aux, int64(ea[j])-int64(prevEA))
				prevEA = ea[j]
			}
		}
		t.count += uint64(n)
		t.halted = blk.halted
		free <- blk
	}
	if crash != nil {
		panic(crash)
	}
	if bitN > 0 {
		t.taken = append(t.taken, bitBuf)
	}
	return t, nil
}

// emulate is Record's emulator stage. It runs p on a fresh emulator for up
// to maxInsts instructions (or until halt), filling each block it takes
// from free and passing it on full, and closes full when it stops: at the
// budget, after the halt, after the block that faulted, or once done
// closes. A panic is recovered into *crash, with this goroutine's stack,
// for Record to raise again.
func emulate(p *program.Program, maxInsts uint64, free <-chan *recordedBlock, full chan<- *recordedBlock, done <-chan struct{}, crash *any) {
	defer close(full)
	defer func() {
		if v := recover(); v != nil {
			*crash = fmt.Sprintf("%v\n\ntape-recording emulator goroutine:\n%s", v, debug.Stack())
		}
	}()
	m := emu.New(p)
	for count := uint64(0); count < maxInsts && !m.Halted(); {
		var b *recordedBlock
		select {
		case b = <-free:
		case <-done:
			return
		}
		b.n, b.err = m.ReadBlock(b.dyn[:min(maxInsts-count, uint64(len(b.dyn)))], b.ea)
		b.pc, b.halted = m.PC(), m.Halted()
		full <- b
		if b.err != nil {
			return
		}
		count += uint64(b.n)
	}
}

// Len returns the number of recorded instructions.
func (t *Tape) Len() uint64 { return t.count }

// Halted reports whether the recording reached OpHalt (as opposed to the
// recording budget).
func (t *Tape) Halted() bool { return t.halted }

// Bytes returns the tape's encoded payload size (excluding the seek index;
// see IndexBytes).
func (t *Tape) Bytes() int64 { return int64(len(t.taken) + len(t.aux)) }

// IndexBytes returns the resident footprint of the tape's seek index.
func (t *Tape) IndexBytes() int64 { return int64(len(t.index)) * 32 }

// FallbackSteps returns how many instructions Readers of this tape have
// served via the live-emulation fallback.
func (t *Tape) FallbackSteps() int64 { return t.fallbackSteps.Load() }

// NewReader returns a fresh replay cursor positioned at the program entry.
// Each simulation needs its own Reader; Readers of one tape may run
// concurrently.
func (r *Tape) NewReader() *Reader {
	return &Reader{t: r, pc: r.startPC}
}

// Reader replays a Tape as an emu.Oracle, reproducing the live emulator's
// block stream bit for bit. If a consumer reads past the recorded end of a
// truncated (non-halted) tape, the Reader transparently falls back to a
// fresh emulator fast-forwarded to the tape's end, so correctness never
// depends on the recording budget.
type Reader struct {
	t      *Tape
	pc     uint64
	seq    uint64
	bitPos uint64 // next taken-bit index
	auxOff int    // next aux byte
	prevEA uint64
	halted bool

	live     *emu.Machine // non-nil once the fallback engaged
	fallback int64        // instructions this reader served via the fallback
}

// Halted reports whether the replayed program has executed OpHalt.
func (r *Reader) Halted() bool { return r.halted }

// FallbackSteps returns how many instructions this reader (as opposed to the
// whole tape — see Tape.FallbackSteps) served through the live-emulation
// fallback, for per-run metrics and span annotations.
func (r *Reader) FallbackSteps() int64 { return r.fallback }

// Pos returns the sequence index of the next instruction ReadBlock will
// produce.
func (r *Reader) Pos() uint64 { return r.seq }

// Seek positions the reader so the next ReadBlock starts at the instruction
// with sequence index seq, replaying neither the simulator nor the emulator
// through the skipped region: it jumps to the nearest preceding index block
// and decodes at most IndexStride-1 instructions forward — a zero-allocation
// fast-forward. Seeking backward is allowed (the cursor state is rebuilt
// from the block, not rewound).
//
// Seeking at or past the end of a halted recording leaves the reader at
// end-of-stream (Halted reports true). Seeking past the end of a truncated
// (non-halted) recording falls back to a fresh emulator fast-forwarded to
// seq, exactly as ReadBlock's past-the-end fallback would.
func (r *Reader) Seek(seq uint64) error {
	t := r.t
	if seq >= t.count && !t.halted {
		// Beyond a truncated recording: the tape cannot reconstruct this
		// region, so engage the live fallback immediately, fast-forwarded
		// to the target.
		live := emu.New(t.prog)
		if _, err := live.Run(seq); err != nil {
			return fmt.Errorf("artifact: seek fallback fast-forward: %w", err)
		}
		r.live = live
		r.seq = seq
		r.halted = live.Halted()
		return nil
	}
	if seq > t.count {
		seq = t.count // halted recording: clamp to end-of-stream
	}
	r.live = nil
	r.halted = false
	b := seq / IndexStride
	if n := uint64(len(t.index)); b >= n {
		// seq == count on an exact multiple of the stride records no
		// trailing block; decode forward from the last one.
		b = n - 1
	}
	sp := t.index[b]
	r.pc, r.seq = sp.pc, b*IndexStride
	r.bitPos, r.auxOff, r.prevEA = sp.bitPos, sp.auxOff, sp.prevEA
	var dyn [64]emu.Dyn
	var ea [64]uint64
	for r.seq < seq {
		k := min(seq-r.seq, uint64(len(dyn)))
		if _, err := r.decode(dyn[:k], ea[:k]); err != nil {
			return fmt.Errorf("artifact: seek decode at seq %d: %w", r.seq, err)
		}
	}
	return nil
}

// ReadBlock decodes the next len(dyn) instructions of the true dynamic
// stream into dyn, and each one's effective address (0 unless it accesses
// memory) into ea, which must be at least as long. It stops early after a
// halt. Past the end of a truncated recording it reads blocks from the live
// fallback and counts each instruction served there. It returns how many
// instructions it produced; on a halted reader that is 0, with
// emu.ErrHalted.
func (r *Reader) ReadBlock(dyn []emu.Dyn, ea []uint64) (int, error) {
	if r.halted {
		return 0, emu.ErrHalted
	}
	n := 0
	if r.live == nil && r.seq < r.t.count {
		var err error
		if n, err = r.decode(dyn, ea); err != nil || r.halted {
			return n, err
		}
	}
	if n == len(dyn) {
		return n, nil
	}
	k, err := r.readLive(dyn[n:], ea[n:])
	return n + k, err
}

// decode is the one decoder of the tape format. It replays recorded
// instructions into dyn and their effective addresses into ea — as many as
// dyn holds, stopping at the recording's end and after a halt — and
// returns how many it replayed. The cursor advances past each of them.
func (r *Reader) decode(dyn []emu.Dyn, ea []uint64) (int, error) {
	t := r.t
	if rest := t.count - r.seq; uint64(len(dyn)) > rest {
		dyn = dyn[:rest]
	}
	ea = ea[:len(dyn)]
	pc, bitPos, auxOff, prevEA := r.pc, r.bitPos, r.auxOff, r.prevEA
	n := 0
	var err error
	for n < len(dyn) {
		in, ok := t.prog.InstAt(pc)
		if !ok {
			err = fmt.Errorf("artifact: replay PC %#x outside code image", pc)
			break
		}
		next := pc + isa.InstBytes
		taken := false
		var addr uint64
		switch {
		case in.IsCondBranch():
			if t.taken[bitPos>>3]>>(bitPos&7)&1 != 0 {
				taken = true
				next = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
			}
			bitPos++
		case in.IsDirectJump():
			next = uint64(in.Imm) * isa.InstBytes
		case in.IsIndirect():
			v, k := binary.Uvarint(t.aux[auxOff:])
			if k <= 0 {
				err = fmt.Errorf("artifact: corrupt tape (indirect target at seq %d)", r.seq+uint64(n))
				break
			}
			auxOff += k
			next = v
		case in.IsMem():
			delta, k := binary.Varint(t.aux[auxOff:])
			if k <= 0 {
				err = fmt.Errorf("artifact: corrupt tape (EA delta at seq %d)", r.seq+uint64(n))
				break
			}
			auxOff += k
			addr = uint64(int64(prevEA) + delta)
			prevEA = addr
		case in.Op == isa.OpHalt:
			next = pc
			r.halted = true
		}
		if err != nil {
			break
		}
		// Field by field: a composite literal is built on the stack and
		// copied with loads wider than its stores, which stalls.
		d := &dyn[n]
		d.PC, d.Inst, d.Taken = pc, in, taken
		ea[n] = addr
		pc = next
		n++
		if r.halted {
			break
		}
	}
	r.pc, r.bitPos, r.auxOff, r.prevEA = pc, bitPos, auxOff, prevEA
	r.seq += uint64(n)
	return n, err
}

// runTable is the static run structure of a program's code, which ReadRun
// reads in place of decoding a run instruction by instruction: two bitmaps
// over the code image, 2 bits per static instruction. Record builds it once
// per tape, before any Reader exists, and Readers share it read-only.
type runTable struct {
	// Bit i (word i/64, bit i%64) of ctl is set when code[i] transfers
	// control, and so ends a run; one more bit, at len(code), ends the run
	// that reaches the end of the image. Bit i of mem is set when code[i]
	// accesses memory.
	ctl, mem []uint64
}

func newRunTable(p *program.Program) *runTable {
	words := len(p.Code)/64 + 1
	rt := &runTable{ctl: make([]uint64, words), mem: make([]uint64, words)}
	for i, in := range p.Code {
		if in.ChangesFlow() {
			rt.ctl[i/64] |= 1 << (i % 64)
		}
		if in.IsMem() {
			rt.mem[i/64] |= 1 << (i % 64)
		}
	}
	rt.ctl[len(p.Code)/64] |= 1 << (len(p.Code) % 64)
	return rt
}

// runLen returns how many instructions the run starting at code[i] holds:
// through the next control transfer, or to the end of the image.
func (rt *runTable) runLen(i uint64) uint64 {
	w := i / 64
	if b := rt.ctl[w] >> (i % 64); b != 0 {
		return uint64(bits.TrailingZeros64(b)) + 1
	}
	for {
		w++
		if b := rt.ctl[w]; b != 0 {
			return w*64 + uint64(bits.TrailingZeros64(b)) - i + 1
		}
	}
}

// MemRef is one memory operation of a run that ReadRun decoded: the
// instruction's address, the effective address it accessed, and whether it
// stored.
type MemRef struct {
	PC    uint64
	EA    uint64
	Store bool
}

// ReadRun decodes the next run of the true dynamic stream into run: the
// instructions from the cursor up to and including the next control-flow
// instruction, but at most limit of them, which must be positive. It writes
// the run's memory operations, in order, into mem, which must hold limit
// entries, and returns how many it wrote. A run the limit or the recording's
// end cuts short ends at an instruction that is not a control transfer.
//
// ReadRun and ReadBlock share the reader's cursor, which Seek positions for
// both, and its decoding: the same taken bits, varints and error text. Past
// the end of a truncated recording ReadRun serves one-instruction runs from
// the live fallback. On a halted reader it returns 0, with emu.ErrHalted.
func (r *Reader) ReadRun(run *frag.Run, limit int, mem []MemRef) (int, error) {
	t := r.t
	switch {
	case r.halted:
		return 0, emu.ErrHalted
	case r.live != nil || r.seq >= t.count:
		return r.readLiveRun(run, mem)
	}
	pc := r.pc
	i := (pc - program.CodeBase) / isa.InstBytes
	if pc%isa.InstBytes != 0 || i >= uint64(len(t.prog.Code)) {
		// pc below CodeBase wraps i past the image.
		return 0, fmt.Errorf("artifact: replay PC %#x outside code image", pc)
	}
	n := min(t.runs.runLen(i), uint64(limit), t.count-r.seq)
	code := t.prog.Code[i : i+n]
	last := code[n-1]

	// The memory operations, a bitmap word at a time.
	auxOff, prevEA := r.auxOff, r.prevEA
	k := 0
	for j := uint64(0); j < n; {
		span := min(64-(i+j)%64, n-j)
		ops := t.runs.mem[(i+j)/64] >> ((i + j) % 64)
		if span < 64 {
			ops &= 1<<span - 1
		}
		for ; ops != 0; ops &= ops - 1 {
			at := j + uint64(bits.TrailingZeros64(ops))
			delta, w := binary.Varint(t.aux[auxOff:])
			if w <= 0 {
				return 0, fmt.Errorf("artifact: corrupt tape (EA delta at seq %d)", r.seq+at)
			}
			auxOff += w
			prevEA = uint64(int64(prevEA) + delta)
			m := &mem[k]
			m.PC, m.EA, m.Store = pc+at*isa.InstBytes, prevEA, code[at].IsStore()
			k++
		}
		j += span
	}

	lastPC := pc + (n-1)*isa.InstBytes
	next := lastPC + isa.InstBytes
	taken := false
	switch {
	case last.IsCondBranch():
		if t.taken[r.bitPos>>3]>>(r.bitPos&7)&1 != 0 {
			taken = true
			next = uint64(int64(lastPC) + isa.InstBytes + int64(last.Imm)*isa.InstBytes)
		}
		r.bitPos++
	case last.IsDirectJump():
		next = uint64(last.Imm) * isa.InstBytes
	case last.IsIndirect():
		v, w := binary.Uvarint(t.aux[auxOff:])
		if w <= 0 {
			return 0, fmt.Errorf("artifact: corrupt tape (indirect target at seq %d)", r.seq+n-1)
		}
		auxOff += w
		next = v
	case last.Op == isa.OpHalt:
		next = lastPC
		r.halted = true
	}
	run.PC, run.Len, run.Last, run.Taken = pc, int(n), last, taken
	r.pc, r.seq, r.auxOff, r.prevEA = next, r.seq+n, auxOff, prevEA
	return k, nil
}

// readLiveRun serves a one-instruction run from the live fallback.
func (r *Reader) readLiveRun(run *frag.Run, mem []MemRef) (int, error) {
	var dyn [1]emu.Dyn
	var ea [1]uint64
	n, err := r.readLive(dyn[:], ea[:])
	if n == 0 {
		return 0, err
	}
	d := &dyn[0]
	run.PC, run.Len, run.Last, run.Taken = d.PC, 1, d.Inst, d.Taken
	if !d.Inst.IsMem() {
		return 0, err
	}
	mem[0] = MemRef{PC: d.PC, EA: ea[0], Store: d.Inst.IsStore()}
	return 1, err
}

// readLive serves instructions past the recorded end: a fresh emulator is
// fast-forwarded through the recorded prefix once, then read live.
func (r *Reader) readLive(dyn []emu.Dyn, ea []uint64) (int, error) {
	if r.live == nil {
		live := emu.New(r.t.prog)
		if _, err := live.Run(r.t.count); err != nil {
			return 0, fmt.Errorf("artifact: tape fallback fast-forward: %w", err)
		}
		r.live = live
	}
	n, err := r.live.ReadBlock(dyn, ea)
	r.halted = r.live.Halted()
	r.seq += uint64(n)
	r.fallback += int64(n)
	r.t.fallbackSteps.Add(int64(n))
	if r.t.sink != nil {
		r.t.sink.Add(int64(n))
	}
	return n, err
}

var _ emu.Oracle = (*Reader)(nil)
