package artifact

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/program"
)

func gccSpec(t *testing.T) program.Spec {
	t.Helper()
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCacheSingleFlight hammers one key from many goroutines: everyone gets
// the same shared *Program, and the build ran exactly once (one miss, the
// rest hits).
func TestCacheSingleFlight(t *testing.T) {
	c := New(0)
	spec := gccSpec(t)
	const n = 16
	progs := make([]*program.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Program(spec)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different *Program than caller 0", i)
		}
	}
	s := c.Stats()
	if s.ProgramMisses != 1 || s.ProgramHits != n-1 {
		t.Fatalf("program traffic: %d misses / %d hits, want 1 / %d", s.ProgramMisses, s.ProgramHits, n-1)
	}
}

// TestCacheTapeSharesProgram verifies the tape build goes through the same
// cache for its program, and tape bytes are accounted separately.
func TestCacheTapeSharesProgram(t *testing.T) {
	c := New(0)
	spec := gccSpec(t)
	tape1, err := c.Tape(spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	tape2, err := c.Tape(spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if tape1 != tape2 {
		t.Fatal("same (spec, budget) returned distinct tapes")
	}
	s := c.Stats()
	if s.TapeMisses != 1 || s.TapeHits != 1 {
		t.Fatalf("tape traffic: %d misses / %d hits, want 1 / 1", s.TapeMisses, s.TapeHits)
	}
	if s.ProgramMisses != 1 {
		t.Fatalf("tape recording should have built the program once, got %d misses", s.ProgramMisses)
	}
	if s.TapeBytes <= 0 || s.TapeBytes >= s.Bytes {
		t.Fatalf("tape bytes accounting: tape=%d total=%d", s.TapeBytes, s.Bytes)
	}
}

// TestCacheLRUEviction fills a tiny cache with results and checks the cap
// holds, oldest-first, while the most recent entry always survives.
func TestCacheLRUEviction(t *testing.T) {
	c := New(1024)
	for i := 0; i < 8; i++ {
		c.PutResult(fmt.Sprintf("k%d", i), i, 256)
	}
	s := c.Stats()
	if s.Bytes > 1024 {
		t.Fatalf("cache holds %d bytes, cap is 1024", s.Bytes)
	}
	if s.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", s.Evictions)
	}
	if _, ok := c.GetResult("k0"); ok {
		t.Fatal("oldest entry k0 survived eviction")
	}
	if v, ok := c.GetResult("k7"); !ok || v.(int) != 7 {
		t.Fatalf("newest entry k7 missing (ok=%v v=%v)", ok, v)
	}
}

// TestCacheResultRoundTrip covers the memoization surface incl. the miss
// counter and the keep-first semantics.
func TestCacheResultRoundTrip(t *testing.T) {
	c := New(0)
	if _, ok := c.GetResult("cell"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutResult("cell", "first", 100)
	c.PutResult("cell", "second", 100)
	v, ok := c.GetResult("cell")
	if !ok || v.(string) != "first" {
		t.Fatalf("got (%v, %v), want (first, true)", v, ok)
	}
	s := c.Stats()
	if s.ResultMisses != 1 || s.ResultHits != 1 {
		t.Fatalf("result traffic: %d misses / %d hits, want 1 / 1", s.ResultMisses, s.ResultHits)
	}
}

// TestCacheInfoProvenance pins the provenance build-phase spans are
// annotated with: the lookup that builds an artifact is a miss under its
// content address, every later one a hit — for programs, tapes and warm
// state alike — and warm state is built exactly once, cached as the value
// its builder returned and charged at the bytes it reported.
func TestCacheInfoProvenance(t *testing.T) {
	spec := gccSpec(t)
	c := New(0)
	for i, wantHit := range []bool{false, true} {
		if _, info, err := c.ProgramInfo(spec); err != nil || info.Hit != wantHit || info.Key == "" {
			t.Fatalf("program lookup %d: %+v, %v", i, info, err)
		}
		if _, info, err := c.TapeInfo(spec, 1_000); err != nil || info.Hit != wantHit || info.Key == "" {
			t.Fatalf("tape lookup %d: %+v, %v", i, info, err)
		}
	}

	type warmed struct{ tables []uint64 }
	state := &warmed{tables: make([]uint64, 512)}
	const stateBytes = 512 * 8
	before := c.Stats().Bytes
	builds := 0
	build := func() (any, int64, error) { builds++; return state, stateBytes, nil }
	for i, wantHit := range []bool{false, true} {
		got, info, err := c.WarmStateInfo("wp:k", build)
		if err != nil || got != any(state) || info.Hit != wantHit || info.Key != "wp:k" {
			t.Fatalf("warm lookup %d = (%p, %+v, %v)", i, got, info, err)
		}
	}
	if builds != 1 {
		t.Fatalf("warm state built %d times, want exactly once", builds)
	}
	if got := c.Stats().Bytes - before; got != stateBytes {
		t.Fatalf("warm state charged %d bytes, want %d", got, stateBytes)
	}
}

// TestCacheBuildPanicReleasesKey panics in a warm-state build while a second
// caller waits on its key: the panic reaches the builder's caller, the
// waiter returns an error naming the key and the panic value instead of
// blocking and is not counted as a hit, and a later call for the key builds
// afresh.
func TestCacheBuildPanicReleasesKey(t *testing.T) {
	c := New(0)
	const key = "wp:panics"
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.WarmStateInfo(key, func() (any, int64, error) {
			close(started)
			<-release
			panic("warm build fault")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		_, _, err := c.WarmStateInfo(key, func() (any, int64, error) {
			return nil, 0, errors.New("a second build ran while the first was pending")
		})
		waited <- err
	}()
	for c.Stats().WarmHits == 0 { // the waiter has found the pending entry
		runtime.Gosched()
	}
	close(release)
	if v := <-panicked; fmt.Sprint(v) != "warm build fault" {
		t.Fatalf("the builder's caller recovered %v, want the build's panic", v)
	}
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), "warm build fault") {
			t.Fatalf("waiter got %v, want an error naming %s and the panic", err, key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked 5 s after the build panicked")
	}
	if n := c.Stats().WarmHits; n != 0 {
		t.Errorf("a waiter on a panicked build counts as %d warm hit(s), want 0", n)
	}
	v, info, err := c.WarmStateInfo(key, func() (any, int64, error) { return "rebuilt", 8, nil })
	if err != nil || v != "rebuilt" || info.Hit {
		t.Fatalf("later call = (%v, %+v, %v), want a fresh build", v, info, err)
	}
}

// TestCacheBuildErrorIsNoHit fails a warm-state build with an error while a
// second caller waits on its key: both callers get the build's error, and
// neither lookup stays counted as a hit, since neither was served anything.
func TestCacheBuildErrorIsNoHit(t *testing.T) {
	c := New(0)
	const key = "wp:fails"
	started, release := make(chan struct{}), make(chan struct{})
	built, waited := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := c.WarmStateInfo(key, func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, errors.New("warm build fault")
		})
		built <- err
	}()
	<-started
	go func() {
		_, _, err := c.WarmStateInfo(key, func() (any, int64, error) {
			return nil, 0, errors.New("a second build ran while the first was pending")
		})
		waited <- err
	}()
	for c.Stats().WarmHits == 0 { // the waiter has found the pending entry
		runtime.Gosched()
	}
	close(release)
	for _, ch := range []chan error{built, waited} {
		if err := <-ch; err == nil || err.Error() != "warm build fault" {
			t.Fatalf("caller got %v, want the build's error", err)
		}
	}
	if s := c.Stats(); s.WarmHits != 0 || s.WarmMisses != 1 || s.Hits() != 0 {
		t.Errorf("after a failed build: %d warm hits, %d warm misses, %d hits; want 0, 1, 0",
			s.WarmHits, s.WarmMisses, s.Hits())
	}
}

// TestNilCache ensures the optional-cache idiom holds: a nil *Cache builds
// cold and never panics.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, err := c.Program(gccSpec(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult("x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.PutResult("x", 1, 1)
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	c.Register(nil)
}

// TestCacheMetrics registers the cache on a registry and checks the scrape
// carries the advertised series.
func TestCacheMetrics(t *testing.T) {
	c := New(0)
	if _, err := c.Tape(gccSpec(t), 1_000); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pfe_artifact_hits_total{kind="tape"}`,
		`pfe_artifact_misses_total{kind="program"} 1`,
		`pfe_artifact_tape_bytes`,
		`pfe_artifact_evictions_total`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
