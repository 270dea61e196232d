// Package journal is a crash-safe append-only JSONL write-ahead log for
// experiment results: each record is one line carrying a CRC32 of its exact
// payload bytes, and every append is fsynced before it is reported durable.
// A process killed mid-write can therefore leave at most one torn final
// line, which readers detect and drop; anything the journal acknowledged
// survives the kill and is replayable with `pfe-bench -resume`.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"github.com/parallel-frontend/pfe/internal/obs"
)

// line is the wire form of one record: crc is the IEEE CRC32 of the exact
// bytes of d as they appear on the line.
type line struct {
	CRC string          `json:"crc"`
	D   json.RawMessage `json:"d"`
}

// Writer appends checksummed records to a journal file. Append is safe for
// concurrent use (experiment workers journal from many goroutines).
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	buf      bytes.Buffer
	firstErr error

	// FsyncHist, if non-nil, observes each append's fsync latency in
	// seconds (pfe_journal_fsync_seconds).
	FsyncHist *obs.Histogram
}

// Create opens path for appending, creating it if needed. An existing
// journal is extended, never rewritten — that is what makes resume append
// new results to the same file it replayed — except that a torn tail left
// by a crash mid-append is cut off first: the next record must start on a
// line of its own, or it would run into the fragment and the whole line
// would read as corrupt. A journal corrupted before its tail is an error.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	_, torn, end, err := scan(f, path, func([]byte) error { return nil })
	if err == nil && torn > 0 {
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("journal: cutting torn tail of %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Append marshals v, frames it with a checksum and fsyncs the record. When
// Append returns nil the record is durable. The first error is also
// retained for Err(), so fire-and-forget callers (the experiment hot path)
// can surface a broken journal once at the end of the run.
func (w *Writer) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return w.fail(fmt.Errorf("journal: marshaling record: %w", err))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Reset()
	fmt.Fprintf(&w.buf, `{"crc":"%08x","d":`, crc32.ChecksumIEEE(payload))
	w.buf.Write(payload)
	w.buf.WriteString("}\n")
	if _, err := w.f.Write(w.buf.Bytes()); err != nil {
		return w.failLocked(fmt.Errorf("journal: appending record: %w", err))
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.failLocked(fmt.Errorf("journal: fsync: %w", err))
	}
	if w.FsyncHist != nil {
		w.FsyncHist.Observe(time.Since(start).Seconds())
	}
	return nil
}

func (w *Writer) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failLocked(err)
}

func (w *Writer) failLocked(err error) error {
	if w.firstErr == nil {
		w.firstErr = err
	}
	return err
}

// Err returns the first append error, if any. A non-nil Err means the
// journal is missing records and must not be trusted as a resume base.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

// Close closes the underlying file. Records already appended stay durable.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Scan reads a journal, calling fn with each record's payload bytes in
// append order. It returns the number of valid records delivered and the
// number of trailing lines dropped as torn (0 or 1 in practice).
//
// A checksum or framing failure on the *final* line — including a final
// line whose newline never made it to disk, which Append writes together
// with the record — is the expected signature of a crash mid-append and is
// tolerated; the same failure followed by further valid records means the
// file was corrupted at rest, which Scan reports as an error rather than
// silently replaying around.
func Scan(path string, fn func(payload []byte) error) (records, torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	records, torn, _, err = scan(f, path, fn)
	return records, torn, err
}

// scan is Scan over an open file. end is the byte offset just past the last
// valid record's newline: everything after it is the torn tail.
func scan(r io.Reader, path string, fn func(payload []byte) error) (records, torn int, end int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var off int64
	lineNo := 0
	badLine := 0 // 1-based line number of the first undecodable line
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return records, 0, end, fmt.Errorf("journal: reading %s: %w", path, rerr)
		}
		if len(raw) == 0 {
			break
		}
		lineNo++
		off += int64(len(raw))
		text := bytes.TrimSpace(raw)
		if len(text) > 0 {
			if badLine != 0 {
				return records, 0, end, fmt.Errorf("journal: %s:%d: corrupt record followed by more data (not a torn tail)", path, badLine)
			}
			var l line
			if raw[len(raw)-1] != '\n' || json.Unmarshal(text, &l) != nil ||
				fmt.Sprintf("%08x", crc32.ChecksumIEEE(l.D)) != l.CRC {
				badLine = lineNo
			} else {
				if err := fn(l.D); err != nil {
					return records, 0, end, err
				}
				records++
				end = off
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	if badLine != 0 {
		torn = 1
	}
	return records, torn, end, nil
}
