package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tailStep is one scripted mutation of the tailed file followed by a poll.
type tailStep struct {
	// write appends bytes; truncate resets the file to zero first;
	// remove deletes the file; create recreates it empty.
	write    string
	truncate bool
	remove   bool
	// want is the concatenation of complete-line chunks this poll must
	// emit.
	want string
}

func TestTailerEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		steps []tailStep
		// flush is the expected final-flush emission.
		flush         string
		wantRotations int64
	}{
		{
			name: "complete lines pass through",
			steps: []tailStep{
				{write: "a 1\nb 2\n", want: "a 1\nb 2\n"},
				{write: "c 3\n", want: "c 3\n"},
			},
		},
		{
			name: "partial line buffered until its newline arrives",
			steps: []tailStep{
				{write: "a 1\nb ", want: "a 1\n"},
				{write: "", want: ""},
				{write: "2\nc 3\n", want: "b 2\nc 3\n"},
			},
		},
		{
			name: "final flush of partial last line",
			steps: []tailStep{
				{write: "a 1\nb 2", want: "a 1\n"},
			},
			flush: "b 2\n",
		},
		{
			name: "rotation mid-record drops the stale partial",
			steps: []tailStep{
				{write: "a 1\nb 2 is going to be cut ", want: "a 1\n"},
				// The writer rotates: the unread half of record b belongs
				// to the old incarnation and must not prefix record c.
				{truncate: true, write: "c 3\nd 4\n", want: "c 3\nd 4\n"},
			},
			wantRotations: 1,
		},
		{
			name: "truncation to zero restarts from byte zero",
			steps: []tailStep{
				{write: "a 1\nb 2\n", want: "a 1\nb 2\n"},
				{truncate: true, want: ""},
				{write: "e 5\n", want: "e 5\n"},
			},
			wantRotations: 1,
		},
		{
			name: "file appears only after tailing started",
			steps: []tailStep{
				{remove: true, want: ""},
				{remove: true, want: ""},
				{write: "late 1\n", want: "late 1\n"},
			},
		},
		{
			name: "shrunk rewrite re-reads the new incarnation",
			steps: []tailStep{
				{write: "first incarnation with plenty of bytes\n", want: "first incarnation with plenty of bytes\n"},
				{truncate: true, write: "second\n", want: "second\n"},
			},
			wantRotations: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "mon.log")
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			tail := NewTailer(path, 0)
			var got strings.Builder
			emit := func(b []byte) error { got.Write(b); return nil }
			for i, step := range tc.steps {
				if step.remove {
					_ = os.Remove(path)
				}
				if step.truncate {
					if err := os.Truncate(path, 0); err != nil {
						t.Fatal(err)
					}
				}
				if step.write != "" || !step.remove && !step.truncate {
					f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteString(step.write); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
				got.Reset()
				if _, err := tail.Poll(emit); err != nil {
					t.Fatalf("step %d: poll: %v", i, err)
				}
				if got.String() != step.want {
					t.Fatalf("step %d: emitted %q, want %q", i, got.String(), step.want)
				}
			}
			got.Reset()
			if err := tail.Flush(emit); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if got.String() != tc.flush {
				t.Fatalf("flush emitted %q, want %q", got.String(), tc.flush)
			}
			if r := tail.Rotations(); r != tc.wantRotations {
				t.Fatalf("rotations = %d, want %d", r, tc.wantRotations)
			}
		})
	}
}

func TestTailerResumeOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mon.log")
	content := "old 1\nold 2\nnew 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// Resume past the first two lines, as a ledger checkpoint would.
	tail := NewTailer(path, int64(len("old 1\nold 2\n")))
	var got strings.Builder
	if _, err := tail.Poll(func(b []byte) error { got.Write(b); return nil }); err != nil {
		t.Fatal(err)
	}
	if got.String() != "new 3\n" {
		t.Fatalf("resumed poll emitted %q, want %q", got.String(), "new 3\n")
	}
	if c := tail.Committed(); c != int64(len(content)) {
		t.Fatalf("committed = %d, want %d", c, len(content))
	}
}

func TestTailerCommittedExcludesPartial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mon.log")
	if err := os.WriteFile(path, []byte("done\npart"), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := NewTailer(path, 0)
	if _, err := tail.Poll(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := tail.Committed(); c != int64(len("done\n")) {
		t.Fatalf("committed = %d, want %d (partial line must not be checkpointed)", c, len("done\n"))
	}
	if err := tail.Flush(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := tail.Committed(); c != int64(len("done\npart")) {
		t.Fatalf("committed after flush = %d, want %d", c, len("done\npart"))
	}
}

// TestTailerChunkedCatchUp: a poll reads what the file held when it was
// stat'ed, a chunk at a time, whatever happens to the file meanwhile.
func TestTailerChunkedCatchUp(t *testing.T) {
	line := func(i int) string { return fmt.Sprintf("record %06d %s\n", i, strings.Repeat("x", 100)) }
	var big strings.Builder
	for i := 0; big.Len() < 5*tailChunk; i++ {
		big.WriteString(line(i))
	}
	long := "short 1\n" + strings.Repeat("L", 2*tailChunk+17) + "\nshort 2\n"
	appendTo := func(path, data string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(data); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		content string
		// during runs inside the first emit of the first poll: the file
		// changes under a catch-up in progress.
		during func(path string)
		// first and second are what the first and second polls emit;
		// minEmits is how many chunks the first poll must take.
		first, second string
		minEmits      int
		rotations     int64
	}{
		{
			name:    "file larger than several chunks",
			content: big.String() + "partial",
			first:   big.String(), minEmits: 5,
		},
		{
			name:    "line longer than a chunk",
			content: long,
			first:   long, minEmits: 2,
		},
		{
			name:    "growth between stat and read waits for the next poll",
			content: big.String(),
			during:  func(path string) { appendTo(path, "late 1\nlate 2\n") },
			first:   big.String(), second: "late 1\nlate 2\n", minEmits: 5,
		},
		{
			name:    "truncation mid catch-up",
			content: big.String(),
			during: func(path string) {
				if err := os.WriteFile(path, []byte("reborn 1\nreborn 2\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			// The old incarnation's first chunk is out already; nothing
			// else of it can be read, and the new one starts from zero.
			first: big.String()[:strings.LastIndexByte(big.String()[:tailChunk], '\n')+1], second: "reborn 1\nreborn 2\n",
			minEmits: 1, rotations: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mon.log")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			tail := NewTailer(path, 0)
			var got strings.Builder
			emits, maxEmit := 0, 0
			emit := func(b []byte) error {
				got.Write(b)
				emits++
				maxEmit = max(maxEmit, len(b))
				if emits == 1 && tc.during != nil {
					tc.during(path)
				}
				return nil
			}
			n, err := tail.Poll(emit)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != tc.first {
				t.Fatalf("first poll emitted %d bytes, want %d", got.Len(), len(tc.first))
			}
			if emits < tc.minEmits {
				t.Errorf("first poll emitted %d chunks, want at least %d", emits, tc.minEmits)
			}
			if tc.rotations == 0 && n != len(tc.content) {
				t.Errorf("first poll consumed %d bytes, want the %d the file held when stat'ed", n, len(tc.content))
			}
			if c := tail.Committed(); c != int64(len(tc.first)) {
				t.Errorf("committed %d after the first poll, want %d", c, len(tc.first))
			}
			if limit := len(long); maxEmit > limit {
				t.Errorf("one emit carried %d bytes: reads are not bounded by a chunk plus the longest line", maxEmit)
			}
			got.Reset()
			if _, err := tail.Poll(emit); err != nil {
				t.Fatal(err)
			}
			if got.String() != tc.second {
				t.Fatalf("second poll emitted %q, want %q", got.String(), tc.second)
			}
			if r := tail.Rotations(); r != tc.rotations {
				t.Errorf("rotations = %d, want %d", r, tc.rotations)
			}
		})
	}
}
