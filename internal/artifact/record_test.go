package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// recordRef is the reference recorder: it steps the emulator one
// instruction at a time and classifies each one with the instruction
// predicates. Record must produce the same tape byte for byte.
func recordRef(p *program.Program, maxInsts uint64) (*Tape, error) {
	t := &Tape{prog: p, startPC: p.EntryPC}
	m := emu.New(p)
	var bitBuf byte
	var bitN uint
	var bits uint64
	var prevEA uint64
	for t.count < maxInsts && !m.Halted() {
		if t.count%IndexStride == 0 {
			t.index = append(t.index, seekPoint{
				pc: m.PC(), bitPos: bits, auxOff: len(t.aux), prevEA: prevEA,
			})
		}
		d, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("artifact: recording %s: %w", p.Name, err)
		}
		in := d.Inst
		switch {
		case in.IsCondBranch():
			if d.Taken {
				bitBuf |= 1 << bitN
			}
			bits++
			if bitN++; bitN == 8 {
				t.taken = append(t.taken, bitBuf)
				bitBuf, bitN = 0, 0
			}
		case in.IsIndirect():
			t.aux = binary.AppendUvarint(t.aux, d.NextPC)
		case in.IsMem():
			t.aux = binary.AppendVarint(t.aux, int64(d.EA)-int64(prevEA))
			prevEA = d.EA
		}
		t.count++
	}
	if bitN > 0 {
		t.taken = append(t.taken, bitBuf)
	}
	t.halted = m.Halted()
	return t, nil
}

// TestTapeRecordMatchesReference records every suite benchmark and the
// halting test program with Record and with the one-instruction reference
// recorder, and requires byte-identical taken bits, aux stream and index,
// and the same count and halt flag. Most budgets are not multiples of the
// record block or of IndexStride, so recordings end mid-block and
// mid-stride; IndexStride and 2*IndexStride end exactly on a stride, and
// IndexStride-1 and 2*IndexStride+1 one short of and one past it. Record's
// emulator goroutine must be gone once it returns.
func TestTapeRecordMatchesReference(t *testing.T) {
	before := runtime.NumGoroutine()
	specs := []program.Spec{program.TestSpec()}
	for _, name := range program.SuiteNames() {
		spec, err := program.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	halted := false
	for _, spec := range specs {
		p, err := program.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []uint64{1, 255, IndexStride - 1, IndexStride, 4_097, 2 * IndexStride, 2*IndexStride + 1, 20_011} {
			got, err := Record(p, budget)
			if err != nil {
				t.Fatalf("%s/%d: %v", p.Name, budget, err)
			}
			want, err := recordRef(p, budget)
			if err != nil {
				t.Fatalf("%s/%d: reference: %v", p.Name, budget, err)
			}
			switch {
			case got.count != want.count || got.halted != want.halted:
				t.Fatalf("%s/%d: count %d halted %v, reference %d %v",
					p.Name, budget, got.count, got.halted, want.count, want.halted)
			case !bytes.Equal(got.taken, want.taken):
				t.Fatalf("%s/%d: taken bits differ (%d vs %d bytes)", p.Name, budget, len(got.taken), len(want.taken))
			case !bytes.Equal(got.aux, want.aux):
				t.Fatalf("%s/%d: aux stream differs (%d vs %d bytes)", p.Name, budget, len(got.aux), len(want.aux))
			case !slices.Equal(got.index, want.index):
				t.Fatalf("%s/%d: index differs:\n got  %+v\n want %+v", p.Name, budget, got.index, want.index)
			case got.startPC != want.startPC:
				t.Fatalf("%s/%d: start PC %#x, reference %#x", p.Name, budget, got.startPC, want.startPC)
			}
			halted = halted || got.halted
		}
	}
	if !halted {
		t.Fatal("no recording reached OpHalt; the test program should halt within the largest budget")
	}
	checkGoroutines(t, before)
}

// loopThen hand-builds a program that counts r1 down from 10,000 in a
// two-instruction loop, 20,001 instructions over several of Record's blocks,
// and then executes last.
func loopThen(name string, last isa.Inst) *program.Program {
	return &program.Program{
		Name: name,
		Code: []isa.Inst{
			{Op: isa.OpAddi, Rd: 1, Imm: 10_000},
			{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
			{Op: isa.OpBne, Rs1: 1, Rs2: isa.RegZero, Imm: -2},
			last,
		},
		EntryPC: program.CodeBase,
	}
}

// checkGoroutines fails the test unless the goroutine count falls back to
// want: Record waits for its emulator goroutine to finish, which leaves only
// that goroutine's own exit outstanding when Record returns.
func checkGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Record, %d before: its emulator goroutine outlived it",
				runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestTapeRecordFault records a program whose jump leaves the code image
// after several full blocks: Record drops the recording and returns the
// emulator's fault, with the reference recorder's error text.
func TestTapeRecordFault(t *testing.T) {
	before := runtime.NumGoroutine()
	p := loopThen("fault", isa.Inst{Op: isa.OpJ, Imm: 0x400000 / isa.InstBytes})
	const want = "artifact: recording fault: emu: PC 0x400000 outside code image"
	tape, err := Record(p, 100_000)
	if err == nil || err.Error() != want {
		t.Fatalf("Record = %v, %v; want the error %q", tape, err, want)
	}
	if _, err := recordRef(p, 100_000); err == nil || err.Error() != want {
		t.Fatalf("reference recorder: %v; want the error %q", err, want)
	}
	checkGoroutines(t, before)
}

// TestTapeRecordPanic records a program whose FP add writes integer
// register 1, which panics in the emulator after several full blocks: the
// panic must reach Record's caller, carrying the emulator goroutine's stack,
// rather than end the process from the emulator goroutine.
func TestTapeRecordPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	p := loopThen("panic", isa.Inst{Op: isa.OpFadd, Rd: 1, Rs1: isa.FPBase, Rs2: isa.FPBase + 1})
	v := func() (v any) {
		defer func() { v = recover() }()
		tape, err := Record(p, 100_000)
		t.Errorf("Record = %v, %v; want a panic", tape, err)
		return nil
	}()
	msg := fmt.Sprint(v)
	for _, want := range []string{"index out of range [225] with length 32", "emu.(*Machine).ReadBlock"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic value lacks %q:\n%s", want, msg)
		}
	}
	checkGoroutines(t, before)
}

// BenchmarkTapeRecord records gcc prefixes and reports the cost per
// recorded instruction (ns/inst), the set-up cost of every sampled
// sweep: a 1M-instruction prefix, and the tape of a sampled cell with 10M
// warmup and 1M sampled instructions (with TapeSlack), the length perfbench's
// sampled-warm records. Run it at -cpu 1,2 as well: the recorder's two stages
// overlap only where a second core is free.
func BenchmarkTapeRecord(b *testing.B) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []uint64{1_000_000, 10_000_000 + 1_000_000 + TapeSlack} {
		b.Run(fmt.Sprintf("insts=%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Record(p, budget); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*budget), "ns/inst")
		})
	}
}
