// Package stream turns the batch milliScope pipeline incremental: a
// rotation-aware tailer follows growing monitor logs, feeds the existing
// mScopeParsers through pipes so multi-line resynchronization and the
// quarantine policy work unchanged, appends rows to mScopeDB tables as
// records arrive, and an online detector classifies millibottlenecks from
// sliding windows gated by a low watermark — the "performance debugging
// while the experiment still runs" mode the paper's offline workflow
// (Sections III and V) implies but never builds.
//
// Every channel in the pipeline is bounded; when the loader falls behind,
// backpressure propagates through the parser pipes all the way to the
// tailer, which simply reads the files later. Nothing is dropped and
// nothing buffers without bound.
package stream

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
)

// Tailer follows one log file by byte offset, emitting only complete
// lines: a trailing partial line stays buffered until its newline arrives
// (or Flush forces it out at shutdown). A file whose size shrinks below
// the read offset was rotated or truncated; the tailer restarts from byte
// zero, drops the stale partial buffer, and counts the rotation.
type Tailer struct {
	path    string
	readOff int64 // bytes consumed from the file, including the partial tail
	// buf is the one read buffer, reused across polls; its first partial
	// bytes are the trailing partial line. It outgrows a chunk only by the
	// longest line seen.
	buf     []byte
	partial int

	committed atomic.Int64 // bytes emitted downstream (complete lines only)
	rotations atomic.Int64
}

// tailChunk is how much one read takes from the file: catching up on a
// large file costs this much memory, not the file's size.
const tailChunk = 64 << 10

// NewTailer tails path starting at offset — zero for a fresh file, or a
// checkpointed offset from the ingest ledger to resume without re-reading
// history.
func NewTailer(path string, offset int64) *Tailer {
	t := &Tailer{path: path, readOff: offset}
	t.committed.Store(offset)
	return t
}

// Path returns the tailed file path.
func (t *Tailer) Path() string { return t.path }

// Committed returns the byte offset of everything emitted downstream; safe
// to read concurrently with Poll.
func (t *Tailer) Committed() int64 { return t.committed.Load() }

// Rotations counts rotation/truncation resets observed; safe to read
// concurrently with Poll.
func (t *Tailer) Rotations() int64 { return t.rotations.Load() }

// Poll reads what the file had appended since the last call, as of the
// size it stats on entry, a chunk at a time, and hands the complete-line
// prefix of each chunk to emit; what is written meanwhile waits for the
// next call. emit must not keep the slice: the next chunk overwrites it.
// Poll returns the number of new bytes consumed (zero when the file is
// missing or unchanged). A missing file is not an error — the monitor may
// not have created it yet.
func (t *Tailer) Poll(emit func([]byte) error) (int, error) {
	fi, err := os.Stat(t.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	if size < t.readOff {
		// Rotation or truncation: the writer restarted the file. Bytes we
		// had not read are gone, and the buffered partial line belonged to
		// the old incarnation — parsing it against fresh content would
		// fabricate a record, so it is dropped, not emitted.
		t.readOff = 0
		t.partial = 0
		t.committed.Store(0)
		t.rotations.Add(1)
	}
	if size == t.readOff {
		return 0, nil
	}
	f, err := os.Open(t.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	total := 0
	for t.readOff < size {
		want := int(min(size-t.readOff, tailChunk))
		if need := t.partial + want; need > len(t.buf) {
			grown := make([]byte, max(need, 2*len(t.buf)))
			copy(grown, t.buf[:t.partial])
			t.buf = grown
		}
		n, err := f.ReadAt(t.buf[t.partial:t.partial+want], t.readOff)
		t.readOff += int64(n)
		total += n
		data := t.buf[:t.partial+n]
		// Only the new bytes can hold a newline: the partial line has none.
		if cut := bytes.LastIndexByte(data[t.partial:], '\n'); cut >= 0 {
			cut += t.partial + 1
			if err := emit(data[:cut]); err != nil {
				return total, err
			}
			t.partial = copy(t.buf, data[cut:])
			t.committed.Store(t.readOff - int64(t.partial))
		} else {
			t.partial = len(data)
		}
		if err == io.EOF {
			// Truncated while catching up; the next poll sees the shrink.
			break
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Flush emits the buffered partial line, newline-terminated, at shutdown:
// a monitor killed mid-write leaves its last record without a newline, and
// the final flush is the only chance to parse it.
func (t *Tailer) Flush(emit func([]byte) error) error {
	if t.partial == 0 {
		return nil
	}
	line := append(t.buf[:t.partial], '\n')
	t.partial = 0
	if err := emit(line); err != nil {
		return err
	}
	t.committed.Store(t.readOff)
	return nil
}
