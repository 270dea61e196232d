package frag_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
)

// liveOutsRef is the live-out scan as the rename package kept it before the
// scan moved into frag: the reference every stored Fragment.LiveOuts must
// equal.
func liveOutsRef(insts []isa.Inst) frag.LiveOuts {
	var lo frag.LiveOuts
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

// checkRef is rename.CheckPrediction as it was before it gained a form that
// takes the actual live-outs: it rescans them, and walks every write.
func checkRef(pred frag.LiveOuts, insts []isa.Inst) rename.MispredictKind {
	actual := liveOutsRef(insts)
	var seenLast uint64
	for i, in := range insts {
		rd, ok := in.Dest()
		if !ok {
			continue
		}
		if pred.RegMask&(1<<rd) == 0 {
			return rename.UnpredictedWrite
		}
		if seenLast&(1<<rd) != 0 {
			return rename.WriteAfterLast
		}
		if pred.LastWrite&(1<<i) != 0 {
			seenLast |= 1 << rd
		}
	}
	if pred.LastWrite&^actual.LastWrite != 0 {
		return rename.LastWriteMissing
	}
	if pred.RegMask&^actual.RegMask != 0 {
		return rename.MissingWrite
	}
	return rename.PredictionCorrect
}

// checkDecoded compares everything FromCode stores in f against the
// definitions it was computed from, and the live-out check that reads the
// stored live-outs against checkRef over predictions near and far from the
// truth.
func checkDecoded(t *testing.T, f *frag.Fragment, rng *rand.Rand) {
	t.Helper()
	if len(f.Decode) != len(f.Insts) || len(f.PCs) != len(f.Insts) {
		t.Fatalf("%v: %d decodes, %d PCs for %d instructions", f.ID, len(f.Decode), len(f.PCs), len(f.Insts))
	}
	for i, in := range f.Insts {
		d := f.Decode[i]
		if srcs := in.Sources(nil); !slices.Equal(d.Src[:d.NSrc], srcs) {
			t.Fatalf("%v[%d] %v: sources %v, isa says %v", f.ID, i, in, d.Src[:d.NSrc], srcs)
		}
		if rd, ok := in.Dest(); d.HasDest != ok || (ok && d.Dest != rd) {
			t.Fatalf("%v[%d] %v: dest %d/%v, isa says %d/%v", f.ID, i, in, d.Dest, d.HasDest, rd, ok)
		}
		if d.Mem != in.IsMem() {
			t.Fatalf("%v[%d] %v: mem %v, isa says %v", f.ID, i, in, d.Mem, in.IsMem())
		}
	}
	actual := liveOutsRef(f.Insts)
	if f.LiveOuts != actual {
		t.Fatalf("%v: live-outs %+v, reference scan %+v", f.ID, f.LiveOuts, actual)
	}
	if got := rename.ComputeLiveOuts(f.Insts); got != actual {
		t.Fatalf("%v: rename.ComputeLiveOuts %+v, reference scan %+v", f.ID, got, actual)
	}
	preds := []frag.LiveOuts{actual, {}, {RegMask: actual.RegMask}, {LastWrite: actual.LastWrite}}
	for i := 0; i < 4; i++ {
		preds = append(preds,
			frag.LiveOuts{RegMask: actual.RegMask ^ 1<<rng.Intn(isa.NumRegs), LastWrite: actual.LastWrite},
			frag.LiveOuts{RegMask: actual.RegMask, LastWrite: actual.LastWrite ^ 1<<rng.Intn(frag.AbsMaxLen)},
			frag.LiveOuts{RegMask: rng.Uint64(), LastWrite: rng.Uint32()},
			frag.LiveOuts{RegMask: actual.RegMask | rng.Uint64(), LastWrite: actual.LastWrite & rng.Uint32()})
	}
	for _, pred := range preds {
		want := checkRef(pred, f.Insts)
		if got := rename.CheckLiveOuts(pred, f.LiveOuts, f.Insts); got != want {
			t.Fatalf("%v: CheckLiveOuts(%+v) = %v, reference %v", f.ID, pred, got, want)
		}
		if got := rename.CheckPrediction(pred, f.Insts); got != want {
			t.Fatalf("%v: CheckPrediction(%+v) = %v, reference %v", f.ID, pred, got, want)
		}
	}
}

// TestFromCodeDecode pins what FromCode stores in every fragment — each
// instruction's sources, destination and memory class, and the fragment's
// live-outs — to isa's Sources, Dest and IsMem and to the reference
// live-out scan, and pins rename.CheckLiveOuts to the reference check. It
// covers every true-path fragment of a 200K-instruction stream of the 12
// suite programs and of the halting test program, under the paper's
// heuristics and under (32, 16), plus random IDs: start PCs inside and
// outside the code image, and direction bits beyond NumBr.
func TestFromCodeDecode(t *testing.T) {
	const streamInsts = 200_000
	specs := append(program.Suite(), program.TestSpec())
	heurs := []frag.Heuristics{{MaxLen: 16, BranchCutoff: 8}, {MaxLen: 32, BranchCutoff: 16}}
	rng := rand.New(rand.NewSource(20))
	for _, spec := range specs {
		p, err := program.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		stream := make([]frag.Dyn, streamInsts)
		n, err := emu.New(p).ReadBlock(stream, make([]uint64, streamInsts))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		stream = stream[:n]
		if spec.Name == program.TestSpec().Name && n == streamInsts {
			t.Fatalf("%s ran %d instructions without halting", spec.Name, n)
		}
		codeEnd := program.CodeBase + uint64(p.NumInsts())*isa.InstBytes
		for _, h := range heurs {
			memo := frag.NewMemo(p, h)
			frags := 0
			for rest := stream; len(rest) > 0; {
				k, id := h.Split(rest)
				seen := memo.Len()
				if f := memo.Get(id); memo.Len() > seen { // first occurrence
					checkDecoded(t, f, rng)
				}
				rest = rest[k:]
				frags++
			}
			for i := 0; i < 2_000; i++ {
				// Mostly aligned PCs in the image, some in the
				// 256 bytes on either side of it, some misaligned.
				pc := program.CodeBase - 256 + uint64(rng.Int63n(int64(codeEnd-program.CodeBase+512)))
				if rng.Intn(8) != 0 {
					pc &^= isa.InstBytes - 1
				}
				id := frag.ID{StartPC: pc, BrMask: rng.Uint32(), NumBr: uint8(rng.Intn(frag.AbsMaxLen + 1))}
				checkDecoded(t, h.FromCode(p, id), rng)
			}
			t.Logf("%s %+v: %d true-path fragments, %d distinct", spec.Name, h, frags, memo.Len())
		}
	}
}
