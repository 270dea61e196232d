package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Key string  `json:"key"`
	N   int     `json:"n"`
	V   float64 `json:"v"`
}

func readAll(t *testing.T, path string) ([]rec, int) {
	t.Helper()
	var out []rec
	n, torn, err := Scan(path, func(payload []byte) error {
		var r rec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("Scan reported %d records, delivered %d", n, len(out))
	}
	return out, torn
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{"a", 1, 1.5}, {"b", 2, 0.1234567890123456}, {"c", 3, -7}}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := readAll(t, path)
	if torn != 0 {
		t.Errorf("torn = %d, want 0", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v (floats must round-trip exactly)", i, got[i], want[i])
		}
	}
}

func TestAppendExtendsExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := Create(path)
	w.Append(rec{"a", 1, 1})
	w.Close()
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(rec{"b", 2, 2})
	w2.Close()
	got, _ := readAll(t, path)
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("reopened journal = %+v, want [a b]", got)
	}
}

func TestTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := Create(path)
	w.Append(rec{"a", 1, 1})
	w.Append(rec{"b", 2, 2})
	w.Close()
	// Simulate a SIGKILL mid-append: a half-written final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":"deadbeef","d":{"key":"c","n`)
	f.Close()

	got, torn := readAll(t, path)
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (torn tail dropped)", len(got))
	}
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
}

// TestResumeAfterTornTail is the resume round trip over a journal a crash
// left torn: reopening it for appending (what -resume does after replaying)
// must cut the torn tail, so the records appended next stay readable and a
// second resume sees every record with no torn line. Covers a half-written
// record and a whole record that lost its newline.
func TestResumeAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.wal")
	w, _ := Create(whole)
	w.Append(rec{"c", 3, 3})
	w.Close()
	line, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	tails := map[string]string{
		"half-written": `{"crc":"deadbeef","d":{"key":"c","n`,
		"lost-newline": strings.TrimSuffix(string(line), "\n"),
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			w, _ := Create(path)
			w.Append(rec{"a", 1, 1})
			w.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()
			if got, torn := readAll(t, path); len(got) != 1 || torn != 1 {
				t.Fatalf("before resume: %d records torn=%d, want 1 torn=1", len(got), torn)
			}

			w, err = Create(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []rec{{"b", 2, 2}, {"d", 4, 4}} {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			got, torn := readAll(t, path)
			if torn != 0 || len(got) != 3 || got[0].Key != "a" || got[1].Key != "b" || got[2].Key != "d" {
				t.Fatalf("after resume: %+v torn=%d, want [a b d] torn=0", got, torn)
			}
		})
	}
}

func TestChecksumMismatchTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := Create(path)
	w.Append(rec{"a", 1, 1})
	w.Close()
	// Bit-flip inside the final record's payload: the line parses but the
	// checksum no longer matches.
	data, _ := os.ReadFile(path)
	s := strings.Replace(string(data), `"key":"a"`, `"key":"x"`, 1)
	os.WriteFile(path, []byte(s), 0o644)

	got, torn := readAll(t, path)
	if len(got) != 0 || torn != 1 {
		t.Fatalf("got %d records torn=%d, want 0 records torn=1", len(got), torn)
	}
}

func TestMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := Create(path)
	w.Append(rec{"a", 1, 1})
	w.Append(rec{"b", 2, 2})
	w.Close()
	data, _ := os.ReadFile(path)
	// Corrupt the FIRST record: valid data follows, so this is not a torn
	// tail and must be reported, not replayed around.
	s := strings.Replace(string(data), `"key":"a"`, `"key":"z"`, 1)
	os.WriteFile(path, []byte(s), 0o644)

	_, _, err := Scan(path, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("expected an error for mid-file corruption")
	}
	if !strings.Contains(err.Error(), "corrupt record") {
		t.Errorf("error %q does not name the corruption", err)
	}
}

func TestConcurrentAppendsAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _ := Create(path)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Append(rec{"k", i, float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	w.Close()
	got, torn := readAll(t, path)
	if len(got) != n || torn != 0 {
		t.Fatalf("got %d records torn=%d, want %d torn=0", len(got), torn, n)
	}
	seen := map[int]bool{}
	for _, r := range got {
		seen[r.N] = true
	}
	if len(seen) != n {
		t.Errorf("records interleaved/lost: %d distinct of %d", len(seen), n)
	}
}
