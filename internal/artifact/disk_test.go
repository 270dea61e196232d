package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/program"
)

// strCodec is a minimal ResultCodec for tests: values are strings, and only
// payloads carrying the "ok:" tag decode — anything else is a semantic
// decode failure, which must trigger quarantine.
type strCodec struct{}

func (strCodec) EncodeResult(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("strCodec: %T", v)
	}
	return []byte(s), nil
}

func (strCodec) DecodeResult(data []byte) (any, int64, error) {
	if !strings.HasPrefix(string(data), "ok:") {
		return nil, 0, errors.New("strCodec: missing tag")
	}
	return string(data), int64(len(data)), nil
}

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestCacheDiskTierWarm is the two-tier integration test: a cold cache
// populates the store; a fresh cache over the same directory (a new process,
// as far as the cache can tell) serves program, tape and result from disk —
// with correct provenance — and the warm artifacts equal the cold ones.
func TestCacheDiskTierWarm(t *testing.T) {
	dir := t.TempDir()
	spec := gccSpec(t)
	const minInsts = 5_000

	// Cold process: everything misses, builds, and is written back.
	st1 := openStoreT(t, dir)
	c1 := New(0)
	c1.SetStore(st1, strCodec{})
	p1, pinfo, err := c1.ProgramInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pinfo.Source != "miss" || pinfo.Hit {
		t.Fatalf("cold program lookup: %+v", pinfo)
	}
	t1, tinfo, err := c1.TapeInfo(spec, minInsts)
	if err != nil {
		t.Fatal(err)
	}
	if tinfo.Source != "miss" {
		t.Fatalf("cold tape lookup: %+v", tinfo)
	}
	c1.PutResult("cell-1", "ok:ipc=1.5", 16)
	if ds := c1.DiskStats(); ds.Puts != 3 {
		t.Fatalf("cold run persisted %d artifacts, want 3 (program, tape, result): %+v", ds.Puts, ds)
	}
	// Second lookup in the same process: memory tier.
	if _, info, err := c1.ProgramInfo(spec); err != nil || info.Source != "mem-hit" {
		t.Fatalf("repeat program lookup: %+v, %v", info, err)
	}
	st1.Close()

	// Warm process: a fresh cache and store over the same directory.
	st2 := openStoreT(t, dir)
	c2 := New(0)
	c2.SetStore(st2, strCodec{})
	p2, pinfo2, err := c2.ProgramInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pinfo2.Source != "disk-hit" || !pinfo2.Hit {
		t.Fatalf("warm program lookup: %+v", pinfo2)
	}
	if p2.Name != p1.Name || string(p2.Image) != string(p1.Image) || string(p2.Data) != string(p1.Data) {
		t.Fatal("warm program differs from cold build")
	}
	t2, tinfo2, err := c2.TapeInfo(spec, minInsts)
	if err != nil {
		t.Fatal(err)
	}
	if tinfo2.Source != "disk-hit" {
		t.Fatalf("warm tape lookup: %+v", tinfo2)
	}
	if err := tapeStructEqual(t1, t2); err != nil {
		t.Fatalf("warm tape differs from cold recording: %v", err)
	}
	// The decoded tape must replay exactly like the cold one.
	drainBoth(t, "warm-tape", t1.NewReader(), t2.NewReader(), minInsts+200)

	v, rinfo, ok := c2.GetResultInfo("cell-1")
	if !ok || rinfo.Source != "disk-hit" || v.(string) != "ok:ipc=1.5" {
		t.Fatalf("warm result lookup: ok=%v info=%+v v=%v", ok, rinfo, v)
	}
	// The disk hit promotes into the memory tier.
	if _, rinfo2, ok := c2.GetResultInfo("cell-1"); !ok || rinfo2.Source != "mem-hit" {
		t.Fatalf("promoted result lookup: ok=%v info=%+v", ok, rinfo2)
	}
	ds := st2.Stats()
	if ds.Hits() != 3 || ds.Misses() != 0 {
		t.Fatalf("warm run traffic: %d hits / %d misses, want 3/0 (%+v)", ds.Hits(), ds.Misses(), ds.Kinds)
	}
}

// TestCacheDiskQuarantineRebuilds plants store blobs that pass the store's
// checksum but fail semantic decoding (the layer above the frame): the cache
// must quarantine them, rebuild the artifact from scratch, and leave a good
// blob behind for the next process.
func TestCacheDiskQuarantineRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := gccSpec(t)
	const minInsts = 4_000
	progKey := "prog:" + SpecHash(spec)
	tapeKey := fmt.Sprintf("tape:%s:%d", SpecHash(spec), minInsts)

	st0 := openStoreT(t, dir)
	if err := st0.Put("program", progKey, []byte("not a program")); err != nil {
		t.Fatal(err)
	}
	if err := st0.Put("tape", tapeKey, []byte("not a tape")); err != nil {
		t.Fatal(err)
	}
	st0.Close()

	st := openStoreT(t, dir)
	c := New(0)
	c.SetStore(st, nil)
	tape, info, err := c.TapeInfo(spec, minInsts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "miss" {
		t.Fatalf("poisoned tape lookup served from disk: %+v", info)
	}
	if st.Stats().Quarantined != 2 {
		t.Fatalf("poisoned blobs not quarantined: %+v", st.Stats())
	}
	// The rebuilt artifacts must match a from-scratch build...
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Record(p, minInsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tapeStructEqual(ref, tape); err != nil {
		t.Fatalf("rebuilt tape differs from reference: %v", err)
	}
	// ...and the write-back must have replaced the poison with good blobs.
	data, ok := st.Get("tape", tapeKey)
	if !ok {
		t.Fatal("rebuilt tape not re-persisted")
	}
	if _, err := DecodeTape(data, p); err != nil {
		t.Fatalf("re-persisted tape does not decode: %v", err)
	}
	st.Close()
}

// TestCacheDiskResultQuarantine: an undecodable result blob is quarantined
// and reported as a miss, and a subsequent PutResult re-persists cleanly.
func TestCacheDiskResultQuarantine(t *testing.T) {
	dir := t.TempDir()
	st0 := openStoreT(t, dir)
	// The cache namespaces result keys as "res:"+key at both tiers.
	if err := st0.Put("result", "res:cell-9", []byte("garbage, no tag")); err != nil {
		t.Fatal(err)
	}
	st0.Close()

	st := openStoreT(t, dir)
	c := New(0)
	c.SetStore(st, strCodec{})
	if _, _, ok := c.GetResultInfo("cell-9"); ok {
		t.Fatal("undecodable result served")
	}
	if st.Stats().Quarantined != 1 {
		t.Fatalf("undecodable result not quarantined: %+v", st.Stats())
	}
	c.PutResult("cell-9", "ok:fresh", 8)
	st.Close()

	st2 := openStoreT(t, dir)
	c2 := New(0)
	c2.SetStore(st2, strCodec{})
	if v, info, ok := c2.GetResultInfo("cell-9"); !ok || info.Source != "disk-hit" || v.(string) != "ok:fresh" {
		t.Fatalf("re-persisted result lookup: ok=%v info=%+v v=%v", ok, info, v)
	}
}

// TestCacheWithoutStore pins the seam's default: no store attached means the
// in-memory tiers behave exactly as before, with "miss"/"mem-hit" provenance.
func TestCacheWithoutStore(t *testing.T) {
	spec := gccSpec(t)
	c := New(0)
	if _, info, err := c.ProgramInfo(spec); err != nil || info.Source != "miss" {
		t.Fatalf("first lookup: %+v, %v", info, err)
	}
	if _, info, err := c.ProgramInfo(spec); err != nil || info.Source != "mem-hit" {
		t.Fatalf("second lookup: %+v, %v", info, err)
	}
	if ds := c.DiskStats(); ds.Entries != 0 || ds.Puts != 0 {
		t.Fatalf("storeless cache reports disk activity: %+v", ds)
	}
}

// TestCacheDiskWarmStateTierChain walks a warm-state snapshot through the
// tier chain: built once, then served from memory, and from the disk store
// by a fresh cache over the same directory (a new process, as far as the
// cache can tell) — never rebuilt.
func TestCacheDiskWarmStateTierChain(t *testing.T) {
	dir := t.TempDir()
	snapshot := []byte("warmed front-end state, opaque to the cache")
	var builds atomic.Int64
	build := func() ([]byte, error) { builds.Add(1); return snapshot, nil }

	c := New(0)
	c.SetStore(openStoreT(t, dir), nil)
	got, info, err := c.WarmStateInfo("ws1:k", build)
	if err != nil || !bytes.Equal(got, snapshot) {
		t.Fatalf("WarmStateInfo = (%q, %v)", got, err)
	}
	if info.Source != "miss" || builds.Load() != 1 {
		t.Fatalf("first lookup source = %q, builds = %d", info.Source, builds.Load())
	}
	if _, info, _ = c.WarmStateInfo("ws1:k", build); info.Source != "mem-hit" {
		t.Fatalf("repeat lookup source = %q, want mem-hit", info.Source)
	}

	c2 := New(0)
	c2.SetStore(openStoreT(t, dir), nil)
	got, info, err = c2.WarmStateInfo("ws1:k", build)
	if err != nil || !bytes.Equal(got, snapshot) || info.Source != "disk-hit" {
		t.Fatalf("fresh-process lookup = (%q, %+v, %v), want the snapshot as a disk-hit", got, info, err)
	}
	if builds.Load() != 1 {
		t.Fatalf("snapshot built %d times, want exactly once", builds.Load())
	}

	if s := c.Stats(); s.WarmHits != 1 || s.WarmMisses != 1 {
		t.Fatalf("warm traffic: %d hits / %d misses, want 1 / 1", s.WarmHits, s.WarmMisses)
	}
}

// TestCacheDiskWarmStateQuarantine drops a checksum-valid but semantically
// broken snapshot from both tiers so the next lookup rebuilds instead of
// re-serving the bad blob.
func TestCacheDiskWarmStateQuarantine(t *testing.T) {
	var builds atomic.Int64
	c := New(0)
	c.SetStore(openStoreT(t, t.TempDir()), nil)
	build := func() ([]byte, error) { builds.Add(1); return []byte("v1"), nil }
	if _, _, err := c.WarmStateInfo("ws1:q", build); err != nil {
		t.Fatal(err)
	}
	c.QuarantineWarm("ws1:q")
	if _, info, _ := c.WarmStateInfo("ws1:q", build); info.Source != "miss" {
		t.Fatalf("post-quarantine source = %q, want miss (rebuild)", info.Source)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}
