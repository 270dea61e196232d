package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
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
// and the same count and halt flag. The budgets are not multiples of the
// record block or of IndexStride, so recordings end mid-block and
// mid-stride; IndexStride itself ends one exactly on a stride.
func TestTapeRecordMatchesReference(t *testing.T) {
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
		for _, budget := range []uint64{1, 255, IndexStride, 4_097, 20_011} {
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
}

// BenchmarkTapeRecord records a fixed gcc prefix and reports the cost per
// recorded instruction (ns/inst), the serial set-up cost of every sampled
// or sliced sweep.
func BenchmarkTapeRecord(b *testing.B) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 1_000_000
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Record(p, budget); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/inst")
}
