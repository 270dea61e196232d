package frag

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// runsOf groups a stream into runs as a tape reader serves them: each run
// ends at a control transfer, or earlier where cut says (as a read limit
// cuts one). at[i] is the run holding stream[i] and off[i] its place there.
func runsOf(stream []Dyn, cut func() bool) (runs []Run, at, off []int) {
	for _, d := range stream {
		if len(runs) == 0 || runs[len(runs)-1].Last.ChangesFlow() || cut() {
			runs = append(runs, Run{PC: d.PC})
		}
		r := &runs[len(runs)-1]
		at, off = append(at, len(runs)-1), append(off, r.Len)
		r.Len++
		r.Last, r.Taken = d.Inst, d.Taken
	}
	return runs, at, off
}

// matchRef is the per-instruction PC match MatchRuns replaces.
func matchRef(f *Fragment, stream []Dyn) int {
	m := 0
	for m < f.Len() && m < len(stream) && stream[m].PC == f.PCs[m] {
		m++
	}
	return m
}

// TestSplitRunsMatchesSplit runs every suite program's stream through Split
// and SplitRuns from every position, under the paper's heuristics and two
// others, with runs cut short at random as read limits cut them. The two
// must agree on every fragment: its length and its ID. At each position
// MatchRuns must also agree with a PC-by-PC match for the true fragment
// and for fragments that take one of its branches the other way or drop
// its last direction.
func TestSplitRunsMatchesSplit(t *testing.T) {
	const insts = 20_000
	for _, name := range program.SuiteNames() {
		spec, err := program.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := program.MustBuild(spec)
		stream := make([]Dyn, insts)
		n, err := emu.New(p).ReadBlock(stream, make([]uint64, insts))
		if err != nil {
			t.Fatal(err)
		}
		stream = stream[:n]
		rng := rand.New(rand.NewSource(int64(len(name))))
		runs, at, off := runsOf(stream, func() bool { return rng.Intn(20) == 0 })
		for _, h := range []Heuristics{{16, 8}, {32, 16}, {8, 4}} {
			memo := NewMemo(p, h)
			for i := range stream {
				wantN, wantID := h.Split(stream[i:])
				gotN, gotID := h.SplitRuns(runs[at[i]:], off[i])
				if gotN != wantN || gotID != wantID {
					t.Fatalf("%s %+v at %d: SplitRuns %d %v, Split %d %v", name, h, i, gotN, gotID, wantN, wantID)
				}
				ids := []ID{wantID, {StartPC: wantID.StartPC}}
				for b := range wantID.NumBr {
					ids = append(ids, ID{StartPC: wantID.StartPC, BrMask: wantID.BrMask ^ 1<<b, NumBr: wantID.NumBr})
				}
				if wantID.NumBr > 0 {
					ids = append(ids, ID{StartPC: wantID.StartPC, BrMask: wantID.BrMask, NumBr: wantID.NumBr - 1})
				}
				for _, id := range ids {
					f := memo.Get(id)
					if got, want := f.MatchRuns(runs[at[i]:], off[i]), matchRef(f, stream[i:]); got != want {
						t.Fatalf("%s %+v at %d: MatchRuns of %v = %d, PC match %d", name, h, i, id, got, want)
					}
				}
			}
		}
	}
}

// TestSplitRunsBranchCap covers fragments made only of branches, one run
// each, under heuristics that let every one of 32 branches into a fragment.
func TestSplitRunsBranchCap(t *testing.T) {
	stream := make([]Dyn, 40)
	for i := range stream {
		stream[i] = Dyn{PC: 0x2000 + uint64(4*i), Inst: isa.Inst{Op: isa.OpBne, Rs1: 1}, Taken: i%3 == 0}
	}
	runs, at, off := runsOf(stream, func() bool { return false })
	h := Heuristics{MaxLen: 32, BranchCutoff: 32}
	for i := range stream {
		wantN, wantID := h.Split(stream[i:])
		if gotN, gotID := h.SplitRuns(runs[at[i]:], off[i]); gotN != wantN || gotID != wantID {
			t.Fatalf("at %d: SplitRuns %d %v, Split %d %v", i, gotN, gotID, wantN, wantID)
		}
	}
}

// TestMemoKeyExact pins what keying the memo by ID.Key rests on: every
// start PC in every suite program's code image makes an exact key, and the
// distinct fragment IDs of each program's stream get distinct keys. An ID
// whose key is not exact still gets its own fragment from Get, never the
// fragment of the exact ID it shares a key with.
func TestMemoKeyExact(t *testing.T) {
	for _, name := range program.SuiteNames() {
		spec, err := program.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := program.MustBuild(spec)
		if last := (ID{StartPC: program.CodeBase + uint64(len(p.Code)-1)*isa.InstBytes, NumBr: 32}); !last.exactKey() {
			t.Fatalf("%s: the image's last instruction makes an inexact key", name)
		}
		stream := make([]Dyn, 50_000)
		n, err := emu.New(p).ReadBlock(stream, make([]uint64, len(stream)))
		if err != nil {
			t.Fatal(err)
		}
		keys := map[uint64]ID{}
		for s := stream[:n]; len(s) > 0; {
			k, id := Split(s)
			if prev, ok := keys[id.Key()]; ok && prev != id {
				t.Fatalf("%s: %v and %v share key %#x", name, prev, id, id.Key())
			}
			keys[id.Key()] = id
			s = s[k:]
		}
	}

	p := program.MustBuild(program.TestSpec())
	memo := NewMemo(p, DefaultHeuristics())
	exact := ID{StartPC: p.EntryPC}
	if f := memo.Get(exact); f.Len() == 0 {
		t.Fatal("entry fragment is empty")
	}
	for _, id := range []ID{
		{StartPC: p.EntryPC + 1<<28}, // same Key as exact
		{StartPC: p.EntryPC + 2},
		{StartPC: p.EntryPC, NumBr: 64},
	} {
		if id.exactKey() {
			t.Fatalf("%v: exact, want inexact", id)
		}
		got, want := memo.Get(id), FromCode(p, id)
		if got.ID != want.ID || got.Len() != want.Len() || got == memo.Get(exact) {
			t.Fatalf("Get(%v) = %v (%d insts), want %v (%d insts)", id, got.ID, got.Len(), want.ID, want.Len())
		}
	}
	if memo.Len() != 1 {
		t.Fatalf("memo holds %d fragments after inexact lookups, want 1", memo.Len())
	}
}
