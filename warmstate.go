package pfe

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/tcache"
)

// Warm-state artifacts: the functionally warmed front-end state at a sampled
// or sliced run's first detailed-warmup boundary, serialized as a
// content-addressed blob. Functional warming replays every instruction of
// the skipped prefix through the cache hierarchy and the trained front-end
// structures — at 30 M-instruction warmups it dominates a sampled cell's
// wall time, and it is identical for every cell that shares the dynamic
// stream, the warm-relevant machine configuration, and the boundary. Caching
// the warmed state under that triple in the in-process artifact cache means
// a sweep pays the replay once instead of once per cell.

const (
	warmStateMagic   = "PFEW"
	warmStateVersion = 1

	warmPackMagic   = "PFWP"
	warmPackVersion = 1

	// warmStateMinInsts gates snapshotting: boundaries shorter than this
	// replay faster than a snapshot round-trips, so they always warm
	// directly.
	warmStateMinInsts = 1 << 18
)

// warmClassHash digests the warm-relevant machine configuration: everything
// that shapes the warmer's structures or their training decisions — the
// memory hierarchy, the fragment predictor tables, the fragment-selection
// heuristics, and the optional trained structures (live-out predictor,
// trace cache) when the machine has them. The fetch and rename engine kinds
// themselves are NOT part of the class: functional warming replays the
// true-path stream identically whatever engine later consumes the state, so
// e.g. W16, PF-2x8w and PF-4x4w — which differ only in detailed-simulation
// shape — all share one snapshot per benchmark.
func warmClassHash(m Machine) string {
	h := sha256.New()
	fmt.Fprintf(h, "mem:%+v|pred:%+v|frag:%+v", m.memory, m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
	if m.frontEnd.Rename == core.RenameParallel {
		fmt.Fprintf(h, "|lo:%+v", m.frontEnd.LiveOut)
	}
	if m.frontEnd.Fetch == core.FetchTraceCache {
		fmt.Fprintf(h, "|tc:%d", m.frontEnd.TraceCache)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// warmClasses reduces a machine roster to its sorted, distinct warm class
// hashes — the set of snapshots one union replay of the shared prefix
// produces.
func warmClasses(machines []Machine) []string {
	var classes []string
	seen := map[string]bool{}
	for _, m := range machines {
		if c := warmClassHash(m); !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	return classes
}

// warmPackKey is the content address of one warm pack: the dynamic stream
// (spec), the sorted set of warm classes the pack carries, and the boundary
// the warmer stopped at. Keying the whole class set — rather than one blob
// per class — is what makes union warming single-flight: every cell of a
// sweep, whatever its class, asks the cache for the same key, so the first
// one replays the prefix for the whole roster and the rest wait for its
// pack instead of warming their own class. Tape length is deliberately not
// part of the key — the stream prefix below the boundary is identical
// whatever budget the tape was recorded to.
func warmPackKey(spec program.Spec, classes []string, boundary uint64) string {
	h := sha256.New()
	for _, c := range classes {
		io.WriteString(h, c)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("wp%d:%s:%s:%d", warmPackVersion, artifact.SpecHash(spec), hex.EncodeToString(h.Sum(nil))[:16], boundary)
}

// packSection is one class's snapshot inside a warm pack.
type packSection struct {
	class string
	data  []byte
}

// encodeWarmPack frames class snapshots into one blob: magic, version,
// section count, a (class hash, length) directory, then the payloads.
// Sections are sorted by class so the pack's bytes do not depend on which
// cell of the sweep happened to build it.
func encodeWarmPack(sections []packSection) []byte {
	sort.Slice(sections, func(i, j int) bool { return sections[i].class < sections[j].class })
	n := len(warmPackMagic) + 1 + 4
	for _, s := range sections {
		n += len(s.class) + 1 + 8 + len(s.data)
	}
	out := make([]byte, 0, n)
	out = append(out, warmPackMagic...)
	out = append(out, warmPackVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range sections {
		out = append(out, byte(len(s.class)))
		out = append(out, s.class...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.data)))
	}
	for _, s := range sections {
		out = append(out, s.data...)
	}
	return out
}

// warmPackSection extracts one class's snapshot from a pack. A malformed
// pack or an absent class is an error.
func warmPackSection(pack []byte, class string) ([]byte, error) {
	if len(pack) < len(warmPackMagic)+1+4 || string(pack[:len(warmPackMagic)]) != warmPackMagic {
		return nil, fmt.Errorf("pfe: warm pack: bad magic")
	}
	if v := pack[len(warmPackMagic)]; v != warmPackVersion {
		return nil, fmt.Errorf("pfe: warm pack: version %d, want %d", v, warmPackVersion)
	}
	b := pack[len(warmPackMagic)+1:]
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	type dirent struct {
		class string
		size  uint64
	}
	dir := make([]dirent, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0])+8 {
			return nil, fmt.Errorf("pfe: warm pack: truncated directory")
		}
		cl := int(b[0])
		dir = append(dir, dirent{class: string(b[1 : 1+cl]), size: binary.LittleEndian.Uint64(b[1+cl:])})
		b = b[1+cl+8:]
	}
	for _, d := range dir {
		if uint64(len(b)) < d.size {
			return nil, fmt.Errorf("pfe: warm pack: truncated section %s", d.class)
		}
		if d.class == class {
			return b[:d.size], nil
		}
		b = b[d.size:]
	}
	return nil, fmt.Errorf("pfe: warm pack: no section for class %s", class)
}

// encodeWarmState serializes a warmer that has just finished warmTo: reader
// position, the L1I block-elision cursor, both path histories, the
// hierarchy, and the trained structures the machine has. The pending
// lookahead is not serialized — every consumer resyncs (drops it) before
// the next training step, so the post-restore state is exactly the
// post-resync state. The payload is gzip-compressed: cold table regions are
// long runs of zeros.
func encodeWarmState(w *warmer) ([]byte, error) {
	raw := make([]byte, 0, 1<<20)
	raw = binary.LittleEndian.AppendUint64(raw, w.rd.Pos())
	raw = binary.LittleEndian.AppendUint64(raw, w.lastIBlk)
	var flags byte
	if w.lo != nil {
		flags |= 1
	}
	if w.tc != nil {
		flags |= 2
	}
	raw = append(raw, flags)
	raw = w.specHist.AppendState(raw)
	raw = w.retireHist.AppendState(raw)
	raw = w.hier.AppendState(raw)
	raw = w.pred.AppendState(raw)
	if w.lo != nil {
		raw = w.lo.AppendState(raw)
	}
	if w.tc != nil {
		raw = w.tc.AppendState(raw)
	}

	var buf bytes.Buffer
	buf.WriteString(warmStateMagic)
	buf.WriteByte(warmStateVersion)
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeWarmState restores a snapshot into a freshly built warmer for the
// same machine class and seeks its reader to the snapshot boundary. Any
// mismatch (foreign flags, wrong table geometry, trailing bytes) is an
// error.
func decodeWarmState(w *warmer, data []byte) error {
	if len(data) < len(warmStateMagic)+1 || string(data[:len(warmStateMagic)]) != warmStateMagic {
		return fmt.Errorf("pfe: warm state: bad magic")
	}
	if v := data[len(warmStateMagic)]; v != warmStateVersion {
		return fmt.Errorf("pfe: warm state: version %d, want %d", v, warmStateVersion)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data[len(warmStateMagic)+1:]))
	if err != nil {
		return fmt.Errorf("pfe: warm state: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pfe: warm state: %w", err)
	}
	if len(raw) < 8+8+1 {
		return fmt.Errorf("pfe: warm state: truncated header")
	}
	pos := binary.LittleEndian.Uint64(raw)
	lastIBlk := binary.LittleEndian.Uint64(raw[8:])
	flags := raw[16]
	if (flags&1 != 0) != (w.lo != nil) || (flags&2 != 0) != (w.tc != nil) {
		return fmt.Errorf("pfe: warm state: structure flags %#x do not match machine", flags)
	}
	b := raw[17:]
	if b, err = w.specHist.LoadState(b); err != nil {
		return err
	}
	if b, err = w.retireHist.LoadState(b); err != nil {
		return err
	}
	if b, err = w.hier.LoadState(b); err != nil {
		return err
	}
	if b, err = w.pred.LoadState(b); err != nil {
		return err
	}
	if w.lo != nil {
		if b, err = w.lo.LoadState(b); err != nil {
			return err
		}
	}
	if w.tc != nil {
		if b, err = w.tc.LoadState(b, w.fragOf); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("pfe: warm state: %d trailing bytes", len(b))
	}
	if err := w.rd.Seek(pos); err != nil {
		return err
	}
	w.lastIBlk = lastIBlk
	w.n = 0
	return nil
}

// Union (matrix) warming. A sweep's cells all skip the same prefix, but
// split into warm classes by their trained structures; replaying the prefix
// once per class still repeats the expensive parts — tape decode and cache
// hierarchy training — for every class. The warmer's training loop has a
// strict dependency order that makes one shared replay exact: the cache
// hierarchies observe only the dynamic stream; the fragment predictor and
// both path histories observe only the stream and themselves; the live-out
// predictor and trace cache observe only the fetched-fragment sequence,
// which is fully determined by (stream, predictor). Nothing ever reads a
// hierarchy, live-out predictor or trace cache during warming. So a single
// pass can drive one prediction loop per (predictor config, heuristics)
// anchor group, feed every distinct hierarchy, and fill every distinct
// live-out predictor and trace cache — and each class's snapshot assembled
// from those components is bit-for-bit the snapshot a solo warm of that
// class would have produced (TestWarmSet pins this).

// warmHier is one distinct memory hierarchy under training, with its own
// L1I block-elision cursor.
type warmHier struct {
	key      string
	hier     *mem.Hierarchy
	lastIBlk uint64
	iblkMask uint64
}

// warmLO / warmTC are distinct live-out predictor and trace cache instances
// within an anchor group.
type warmLO struct {
	key string
	lo  *rename.LiveOutPredictor
}

type warmTC struct {
	size int
	tc   *tcache.Cache
}

// warmAnchor is one true-path prediction loop: fragment predictor, both
// path histories, and the lookahead, exactly as in warmer — plus the
// live-out predictors and trace caches trained from its fetched-fragment
// sequence. Distinct predictor configs or fragment heuristics produce
// distinct fetched sequences, hence distinct anchors.
type warmAnchor struct {
	key        string
	pred       *bpred.TracePredictor
	specHist   bpred.History
	retireHist bpred.History
	heur       frag.Heuristics
	prog       *program.Program
	fragMemo   map[frag.ID]*frag.Fragment
	loMemo     map[frag.ID]rename.LiveOuts
	los        []*warmLO
	tcs        []*warmTC
	buf        [2 * frag.AbsMaxLen]frag.Dyn
	n          int
}

func (a *warmAnchor) fragOf(id frag.ID) *frag.Fragment {
	f, ok := a.fragMemo[id]
	if !ok {
		f = a.heur.FromCode(a.prog, id)
		a.fragMemo[id] = f
	}
	return f
}

// train is warmer.train over the anchor's shared loop state, fanned out to
// every attached live-out predictor and trace cache. The control flow must
// stay identical to warmer.train — any divergence breaks the bit-identity
// of union-built snapshots.
func (a *warmAnchor) train() {
	trueLen, trueID := a.heur.Split(a.buf[:a.n])
	if trueLen <= 0 {
		a.n = 0
		return
	}
	pred := a.pred.Predict(&a.specHist)
	id := frag.ID{StartPC: a.buf[0].PC}
	if pred.Valid && pred.ID.StartPC == a.buf[0].PC {
		id = pred.ID
	}
	f := a.fragOf(id)
	m := 0
	for ; m < f.Len() && m < a.n; m++ {
		if a.buf[m].PC != f.PCs[m] {
			break
		}
	}
	a.pred.Update(&a.retireHist, trueID)
	a.retireHist.Push(trueID.Key())
	if len(a.los) > 0 && f.Len() > 0 {
		lo, ok := a.loMemo[f.ID]
		if !ok {
			lo = rename.ComputeLiveOuts(f.Insts)
			a.loMemo[f.ID] = lo
		}
		for _, l := range a.los {
			l.lo.Train(f.ID, lo)
		}
	}
	if f.Len() > 0 {
		for _, t := range a.tcs {
			t.tc.Fill(f)
		}
	}
	adv := trueLen
	if m == f.Len() && f.ID == trueID {
		a.specHist.Push(f.ID.Key())
	} else {
		a.specHist = a.retireHist
		if adv = m; adv <= 0 {
			adv = 1
		}
	}
	copy(a.buf[:], a.buf[adv:a.n])
	a.n -= adv
}

// warmMember is one distinct warm class of the set: the components its
// snapshot is assembled from.
type warmMember struct {
	m      Machine
	class  string
	hier   *warmHier
	anchor *warmAnchor
	lo     *rename.LiveOutPredictor // nil: class has no live-out predictor
	tc     *tcache.Cache            // nil: class has no trace cache
}

// warmSet trains every distinct warm class of a machine roster in one
// replay of the shared stream.
type warmSet struct {
	rd      *artifact.Reader
	hiers   []*warmHier
	anchors []*warmAnchor
	members []warmMember
}

// newWarmSet deduplicates machines into warm classes and shared components.
// Component sharing is by configuration: two classes with the same memory
// hierarchy config train one hierarchy, two with the same (predictor,
// heuristics) share one prediction loop, and so on — each component's
// training is independent of which classes reference it.
func newWarmSet(rd *artifact.Reader, p *program.Program, machines []Machine) *warmSet {
	s := &warmSet{rd: rd}
	classes := map[string]bool{}
	for _, m := range machines {
		class := warmClassHash(m)
		if classes[class] {
			continue
		}
		classes[class] = true

		hkey := fmt.Sprintf("%+v", m.memory)
		var h *warmHier
		for _, c := range s.hiers {
			if c.key == hkey {
				h = c
				break
			}
		}
		if h == nil {
			hier := mem.NewHierarchy(m.memory)
			h = &warmHier{
				key:      hkey,
				hier:     hier,
				iblkMask: ^uint64(hier.L1I.BlockBytes() - 1),
				lastIBlk: ^uint64(0),
			}
			s.hiers = append(s.hiers, h)
		}

		akey := fmt.Sprintf("%+v|%+v", m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
		var a *warmAnchor
		for _, c := range s.anchors {
			if c.key == akey {
				a = c
				break
			}
		}
		if a == nil {
			a = &warmAnchor{
				key:      akey,
				pred:     bpred.New(m.frontEnd.Predictor),
				heur:     m.frontEnd.FragHeuristics,
				prog:     p,
				fragMemo: make(map[frag.ID]*frag.Fragment, 256),
				loMemo:   make(map[frag.ID]rename.LiveOuts, 256),
			}
			s.anchors = append(s.anchors, a)
		}

		mb := warmMember{m: m, class: class, hier: h, anchor: a}
		if m.frontEnd.Rename == core.RenameParallel {
			lkey := fmt.Sprintf("%+v", m.frontEnd.LiveOut)
			var wl *warmLO
			for _, c := range a.los {
				if c.key == lkey {
					wl = c
					break
				}
			}
			if wl == nil {
				wl = &warmLO{key: lkey, lo: rename.NewLiveOutPredictor(m.frontEnd.LiveOut)}
				a.los = append(a.los, wl)
			}
			mb.lo = wl.lo
		}
		if m.frontEnd.Fetch == core.FetchTraceCache {
			var wt *warmTC
			for _, c := range a.tcs {
				if c.size == m.frontEnd.TraceCache {
					wt = c
					break
				}
			}
			if wt == nil {
				wt = &warmTC{size: m.frontEnd.TraceCache, tc: tcache.New(tcache.Config{SizeBytes: m.frontEnd.TraceCache, Ways: 2})}
				a.tcs = append(a.tcs, wt)
			}
			mb.tc = wt.tc
		}
		s.members = append(s.members, mb)
	}
	return s
}

// warmTo replays the stream up to (but not including) sequence index upto,
// feeding every hierarchy and anchor group. Training only ever happens with
// at least frag.AbsMaxLen of lookahead, so every split and match decision is
// content-determined — the same decisions warmer.warmTo makes, whatever the
// interleaving of fills and trains.
func (s *warmSet) warmTo(upto uint64) error {
	for s.rd.Pos() < upto && !s.rd.Halted() {
		for _, a := range s.anchors {
			if a.n == len(a.buf) {
				a.train()
			}
		}
		d, err := s.rd.Step()
		if err != nil {
			return err
		}
		for _, h := range s.hiers {
			if blk := d.PC & h.iblkMask; blk != h.lastIBlk {
				h.hier.L1I.Access(d.PC, false, 0)
				h.lastIBlk = blk
			}
			if d.Inst.IsMem() {
				h.hier.L1D.Access(d.EA, d.Inst.IsStore(), 0)
			}
		}
		dyn := frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}
		for _, a := range s.anchors {
			a.buf[a.n] = dyn
			a.n++
		}
	}
	for _, a := range s.anchors {
		for a.n >= frag.AbsMaxLen {
			a.train()
		}
	}
	return nil
}

// snapshot encodes one member's warm state from the set's components, via a
// facade warmer — the exact encoding a solo warm would have produced.
func (s *warmSet) snapshot(mb *warmMember) ([]byte, error) {
	fw := &warmer{
		rd:         s.rd,
		hier:       mb.hier.hier,
		pred:       mb.anchor.pred,
		lo:         mb.lo,
		tc:         mb.tc,
		specHist:   mb.anchor.specHist,
		retireHist: mb.anchor.retireHist,
		lastIBlk:   mb.hier.lastIBlk,
	}
	return encodeWarmState(fw)
}

// warmThrough advances a fresh warmer to boundary, through the artifact
// cache when one is attached: the first cell of a sweep to reach a boundary
// replays the prefix once — training every distinct warm class of the
// roster side by side — and snapshots the results into one warm pack; every
// later cell of the process, whatever its class, restores its section at
// decode cost. Packs never leave the process, so a decode error is a bug
// and is returned, not papered over.
func warmThrough(wm *warmer, spec program.Spec, m Machine, boundary uint64, opts RunOptions) (artifact.Info, error) {
	if opts.Artifacts == nil || boundary < warmStateMinInsts {
		return artifact.Info{}, wm.warmTo(boundary)
	}
	machines := append([]Machine{m}, opts.WarmRoster...)
	built := false
	data, info, err := opts.Artifacts.WarmStateInfo(warmPackKey(spec, warmClasses(machines), boundary), func() ([]byte, error) {
		// This cell runs the build (union warming over the roster).
		set := newWarmSet(wm.rd, wm.prog, machines)
		if len(set.members) == 1 {
			if err := wm.warmTo(boundary); err != nil {
				return nil, err
			}
			built = true
			b, err := encodeWarmState(wm)
			if err != nil {
				return nil, err
			}
			return encodeWarmPack([]packSection{{class: set.members[0].class, data: b}}), nil
		}
		if err := set.warmTo(boundary); err != nil {
			return nil, err
		}
		sections := make([]packSection, 0, len(set.members))
		for i := range set.members {
			mb := &set.members[i]
			b, err := set.snapshot(mb)
			if err != nil {
				return nil, err
			}
			sections = append(sections, packSection{class: mb.class, data: b})
		}
		return encodeWarmPack(sections), nil
	})
	if err != nil {
		return info, err
	}
	if built {
		return info, nil // this cell ran a solo build: wm is already warm
	}
	section, err := warmPackSection(data, warmClassHash(m))
	if err != nil {
		return info, err
	}
	return info, decodeWarmState(wm, section)
}
