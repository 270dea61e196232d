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
	"github.com/parallel-frontend/pfe/internal/sim"
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
	warmStateVersion = 2

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

// encodeWarmState serializes one member of a warm set that has just
// finished warmTo: reader position, the L1I block-elision cursor, the path
// history, the hierarchy, and the trained structures the class has. The
// pending lookahead is not serialized — every consumer resyncs (drops it)
// before the next training step, so the post-restore state is exactly the
// post-resync state. The payload is gzip-compressed: cold table regions are
// long runs of zeros.
func encodeWarmState(s *warmSet, mb *warmMember) ([]byte, error) {
	raw := make([]byte, 0, 1<<20)
	raw = binary.LittleEndian.AppendUint64(raw, s.rd.Pos())
	raw = binary.LittleEndian.AppendUint64(raw, mb.hier.lastIBlk)
	var flags byte
	if mb.lo != nil {
		flags |= 1
	}
	if mb.tc != nil {
		flags |= 2
	}
	raw = append(raw, flags)
	raw = mb.loop.hist.AppendState(raw)
	raw = mb.hier.hier.AppendState(raw)
	raw = mb.loop.pred.AppendState(raw)
	if mb.lo != nil {
		raw = mb.lo.AppendState(raw)
	}
	if mb.tc != nil {
		raw = mb.tc.AppendState(raw)
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

// decodeWarmState restores a snapshot into a freshly built solo warm set
// for the same machine class and seeks its reader to the snapshot boundary.
// Any mismatch (foreign flags, wrong table geometry, trailing bytes) is an
// error.
func decodeWarmState(s *warmSet, data []byte) error {
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
	mb := &s.members[0]
	pos := binary.LittleEndian.Uint64(raw)
	lastIBlk := binary.LittleEndian.Uint64(raw[8:])
	flags := raw[16]
	if (flags&1 != 0) != (mb.lo != nil) || (flags&2 != 0) != (mb.tc != nil) {
		return fmt.Errorf("pfe: warm state: structure flags %#x do not match machine", flags)
	}
	b := raw[17:]
	if b, err = mb.loop.hist.LoadState(b); err != nil {
		return err
	}
	if b, err = mb.hier.hier.LoadState(b); err != nil {
		return err
	}
	if b, err = mb.loop.pred.LoadState(b); err != nil {
		return err
	}
	if mb.lo != nil {
		if b, err = mb.lo.LoadState(b); err != nil {
			return err
		}
	}
	if mb.tc != nil {
		if b, err = mb.tc.LoadState(b, mb.loop.frags.Get); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("pfe: warm state: %d trailing bytes", len(b))
	}
	if err := s.rd.Seek(pos); err != nil {
		return err
	}
	mb.hier.lastIBlk = lastIBlk
	return nil
}

// Functional warming replays the skipped stream through the long-lived
// machine state a detailed window or slice inherits from its prefix: every
// instruction touches the L1I, memory operations touch the L1D, and the
// fragment-granular structures (fragment predictor, live-out predictor,
// trace cache) are trained by emulating the fetch stream's true-path
// prediction loop. That loop is exactly reconstructible without cycle
// simulation: the stream only updates the fragment predictor on the true
// path, with an anchor and history evolution that depend solely on the
// dynamic stream and the predictor's own answers — a divergence re-anchors
// fragment selection at the first mismatched instruction, which is why
// naive clean splitting trains a measurably different table population than
// the machine would. Reconstructing this state at tape-replay cost instead
// of cycle-simulation cost is the piece of SMARTS that keeps systematic
// sampling unbiased: the pipeline and in-flight window warm quickly inside
// the detailed warmup, but caches and predictor tables reach back much
// further than any affordable detailed region.
//
// One kernel does all of it, for one machine (a window's gaps, a slice's
// prefix) or for a sweep's whole roster at once (union warming: a sweep's
// cells all skip the same prefix, but split into warm classes by their
// trained structures). The training has a strict dependency order that
// makes one shared replay exact: the cache hierarchies observe only the
// dynamic stream; the fragment predictor and its path history observe only
// the stream and themselves; the live-out predictor and trace cache
// observe only the fetched-fragment sequence, which is fully determined by
// (stream, predictor). Nothing ever reads a hierarchy, live-out predictor
// or trace cache during warming. So the kernel decodes the tape a block at
// a time, walks every distinct hierarchy over the block, then runs one
// prediction loop per (predictor config, heuristics) group over it, filling
// every distinct live-out predictor and trace cache of the group — and each
// class's state is bit-for-bit what a replay for that class alone would
// have produced (TestWarmStateUnionWarming pins this).

// warmBlock is how many instructions the kernel decodes per tape read.
const warmBlock = 256

// warmHier is one distinct memory hierarchy under training, with its own
// L1I block-elision cursor: straight-line code stays in one block for many
// instructions, so warming touches the L1I once per block transition
// rather than once per instruction (the resident-block set is identical,
// only redundant LRU refreshes of the just-touched way are elided).
type warmHier struct {
	key      string
	hier     *mem.Hierarchy
	lastIBlk uint64
	iblkMask uint64
}

// walk touches the caches for a decoded block in stream order: the L1I on
// each block transition, the L1D for each memory operation at its
// effective address.
func (h *warmHier) walk(dyn []frag.Dyn, ea []uint64) {
	for i := range dyn {
		d := &dyn[i]
		if blk := d.PC & h.iblkMask; blk != h.lastIBlk {
			h.hier.L1I.Access(d.PC, false, 0)
			h.lastIBlk = blk
		}
		if d.Inst.IsMem() {
			h.hier.L1D.Access(ea[i], d.Inst.IsStore(), 0)
		}
	}
}

// warmLO / warmTC are distinct live-out predictor and trace cache instances
// within a prediction loop's group.
type warmLO struct {
	key string
	lo  *rename.LiveOutPredictor
}

type warmTC struct {
	size int
	tc   *tcache.Cache
}

// warmLoop is one true-path prediction loop, mirroring core.Stream's: a
// fragment predictor, its path history, a fragment memo, and an anchor
// into the set's lookahead — plus the live-out predictors and trace caches
// trained from its fetched-fragment sequence. Distinct predictor configs or
// fragment heuristics produce distinct fetched sequences, hence distinct
// loops. A solo set's memo goes on to serve the detailed runs that inherit
// its state (config), so a sampled cell builds each fragment once.
//
// One history serves as both the stream's speculative and its retirement
// history: on the true path the two are always equal. Both start empty;
// each step pushes the true fragment's ID into the retirement history, and
// the speculative one either pushes the same ID (a correct prediction) or
// is restored from the retirement history (a divergence).
type warmLoop struct {
	key   string
	pred  *bpred.TracePredictor
	hist  bpred.History
	frags *frag.Memo
	los   []*warmLO
	tcs   []*warmTC
	off   int // the loop's anchor: where its next fragment starts in the set's lookahead
}

// train performs one iteration of the stream's true-path prediction loop
// on look, the lookahead from the loop's anchor, which holds at least
// frag.AbsMaxLen instructions so every split and match decision is exact:
// predict the next fragment, materialize it, compare it against the true
// stream, train the predictor on the true fragment, and return how far the
// anchor advances — by the true fragment on a correct prediction, to the
// first mismatched instruction on a divergence (the stream's redirect
// re-anchor). The fetched fragment also trains the live-out predictors and
// fills the trace caches, as renaming and fetch would.
func (l *warmLoop) train(look []frag.Dyn) int {
	trueLen, trueID := l.frags.Heuristics().Split(look)
	pred := l.pred.PredictUpdate(&l.hist, trueID)
	id := frag.ID{StartPC: look[0].PC}
	if pred.Valid && pred.ID.StartPC == look[0].PC {
		id = pred.ID
	}
	f := l.frags.Get(id)
	m := 0
	for m < f.Len() && look[m].PC == f.PCs[m] {
		m++
	}
	l.hist.Push(trueID.Key())
	if f.Len() > 0 {
		for _, w := range l.los {
			w.lo.Train(f.ID, f.LiveOuts)
		}
		for _, w := range l.tcs {
			w.tc.Fill(f)
		}
	}
	if m == f.Len() && f.ID == trueID {
		return trueLen
	}
	// Divergence: fetch resumes at the first mismatch (never the start PC,
	// which the loop forces correct).
	return max(m, 1)
}

// warmMember is one distinct warm class of the set: the components its
// snapshot is assembled from, and that its detailed runs inherit.
type warmMember struct {
	class string
	hier  *warmHier
	loop  *warmLoop
	lo    *rename.LiveOutPredictor // nil: class has no live-out predictor
	tc    *tcache.Cache            // nil: class has no trace cache
}

// warmSet trains every distinct warm class of a machine roster in one
// replay of the stream; a machine's own warming is a set with one member.
type warmSet struct {
	rd      *artifact.Reader
	prog    *program.Program
	hiers   []*warmHier
	loops   []*warmLoop
	members []warmMember

	// look[:end] is the decoded stream from the oldest loop anchor on; ea
	// holds the effective addresses of the block decoded last. The
	// lookahead is compacted only when a block no longer fits behind it.
	look [warmBlock + frag.AbsMaxLen]frag.Dyn
	ea   [warmBlock]uint64
	end  int
}

// newWarmSet deduplicates machines into warm classes and shared components:
// a fresh hierarchy plus every trained front-end structure the machines
// actually have (fragment predictor always; live-out predictor and trace
// cache when the front-end uses them). Component sharing is by
// configuration: two classes with the same memory hierarchy config train
// one hierarchy, two with the same (predictor, heuristics) share one
// prediction loop, and so on — each component's training is independent
// of which classes reference it.
func newWarmSet(rd *artifact.Reader, p *program.Program, machines []Machine) *warmSet {
	s := &warmSet{rd: rd, prog: p}
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

		lkey := fmt.Sprintf("%+v|%+v", m.frontEnd.Predictor, m.frontEnd.FragHeuristics)
		var l *warmLoop
		for _, c := range s.loops {
			if c.key == lkey {
				l = c
				break
			}
		}
		if l == nil {
			l = &warmLoop{
				key:   lkey,
				pred:  bpred.New(m.frontEnd.Predictor),
				frags: frag.NewMemo(p, m.frontEnd.FragHeuristics),
			}
			s.loops = append(s.loops, l)
		}

		mb := warmMember{class: class, hier: h, loop: l}
		if m.frontEnd.Rename == core.RenameParallel {
			lokey := fmt.Sprintf("%+v", m.frontEnd.LiveOut)
			var wl *warmLO
			for _, c := range l.los {
				if c.key == lokey {
					wl = c
					break
				}
			}
			if wl == nil {
				wl = &warmLO{key: lokey, lo: rename.NewLiveOutPredictor(m.frontEnd.LiveOut)}
				l.los = append(l.los, wl)
			}
			mb.lo = wl.lo
		}
		if m.frontEnd.Fetch == core.FetchTraceCache {
			var wt *warmTC
			for _, c := range l.tcs {
				if c.size == m.frontEnd.TraceCache {
					wt = c
					break
				}
			}
			if wt == nil {
				wt = &warmTC{size: m.frontEnd.TraceCache, tc: tcache.New(tcache.Config{SizeBytes: m.frontEnd.TraceCache, Ways: 2})}
				l.tcs = append(l.tcs, wt)
			}
			mb.tc = wt.tc
		}
		s.members = append(s.members, mb)
	}
	return s
}

// warmTo replays the stream up to (but not including) sequence index upto,
// leaving the reader exactly there (or at the halt point). Each decoded
// block walks every hierarchy; then every loop trains on each fragment
// whose anchor has at least frag.AbsMaxLen instructions of lookahead, so
// every decision is content-determined, whatever the block boundaries. A
// partial tail fragment at the gap boundary is left for the detailed
// warmup to handle.
func (s *warmSet) warmTo(upto uint64) error {
	for s.rd.Pos() < upto && !s.rd.Halted() {
		if len(s.look)-s.end < warmBlock {
			s.compact()
		}
		k := min(upto-s.rd.Pos(), warmBlock)
		n, err := s.rd.ReadBlock(s.look[s.end:s.end+int(k)], s.ea[:k])
		if err != nil {
			return err
		}
		for _, h := range s.hiers {
			h.walk(s.look[s.end:s.end+n], s.ea[:n])
		}
		s.end += n
		for _, l := range s.loops {
			for s.end-l.off >= frag.AbsMaxLen {
				l.off += l.train(s.look[l.off:s.end])
			}
		}
	}
	return nil
}

// compact moves the lookahead no loop has consumed yet — under
// frag.AbsMaxLen instructions once every loop has trained — to the front.
func (s *warmSet) compact() {
	lo := s.end
	for _, l := range s.loops {
		lo = min(lo, l.off)
	}
	s.end = copy(s.look[:], s.look[lo:s.end])
	for _, l := range s.loops {
		l.off -= lo
	}
}

// resync drops the pending lookahead after a discontinuity (a detailed
// window consumed the stream between two warming phases): stitching
// instructions from either side of the window into one fragment would train
// the predictor on boundaries that never occur.
func (s *warmSet) resync() {
	s.end = 0
	for _, l := range s.loops {
		l.off = 0
	}
}

// config installs a solo set's warmed structures into a detailed run's
// config, with the cache statistics reset: a window's or slice's miss rates
// describe its own detailed traffic, not the warming replay's. The run also
// builds its fragments through the set's memo, which already holds every
// fragment the warming fetched.
func (s *warmSet) config(cfg *sim.Config) {
	mb := &s.members[0]
	h := mb.hier.hier
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	cfg.Hier = h
	cfg.Pred = mb.loop.pred
	cfg.LiveOut = mb.lo
	cfg.TC = mb.tc
	cfg.Frags = mb.loop.frags
}

// warmThrough advances a machine's fresh solo warm set to boundary, through
// the artifact cache when one is attached: the first cell of a sweep to
// reach a boundary replays the prefix once — training every distinct warm
// class of the roster side by side — and snapshots the results into one
// warm pack; every later cell of the process, whatever its class, restores
// its section at decode cost. Packs never leave the process, so a decode
// error is a bug and is returned, not papered over.
func warmThrough(ws *warmSet, spec program.Spec, m Machine, boundary uint64, opts RunOptions) (artifact.Info, error) {
	if opts.Artifacts == nil || boundary < warmStateMinInsts {
		return artifact.Info{}, ws.warmTo(boundary)
	}
	machines := append([]Machine{m}, opts.WarmRoster...)
	classes := warmClasses(machines)
	built := false
	data, info, err := opts.Artifacts.WarmStateInfo(warmPackKey(spec, classes, boundary), func() ([]byte, error) {
		// This cell runs the build. A roster of this cell's class alone
		// warms the cell's own set.
		set := ws
		if len(classes) > 1 {
			set = newWarmSet(ws.rd, ws.prog, machines)
		} else {
			built = true
		}
		if err := set.warmTo(boundary); err != nil {
			return nil, err
		}
		sections := make([]packSection, 0, len(set.members))
		for i := range set.members {
			mb := &set.members[i]
			b, err := encodeWarmState(set, mb)
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
		return info, nil // this cell warmed its own set
	}
	section, err := warmPackSection(data, warmClassHash(m))
	if err != nil {
		return info, err
	}
	return info, decodeWarmState(ws, section)
}
