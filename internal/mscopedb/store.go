package mscopedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gt-elba/milliscope/internal/retry"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// The on-disk warehouse layout: a dedicated directory holding immutable
// segment files (seg-<seq>-<table>.seg), one tail file (tail-<seq>.seg: the
// unsealed suffix of every table that has one, each as a segment image, one
// after another in manifest order) and MANIFEST.json, which carries every
// table's schema, segments and the size of its tail image. Every byte
// outside the manifest lies inside a checksummed segment image. The
// manifest rename is the single commit point — it names the tail file and
// every segment, all written at one consistent cut across all tables
// (including the mscope_ingests ledger), so a reopened warehouse never
// sees data ahead of its provenance ledger or vice versa. Segments
// spilled between checkpoints are durable but uncommitted; reopen deletes
// anything the manifest does not reference, and the idempotent ingest
// ledger re-drives the lost suffix.
const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 2
)

// StoreOptions tunes the segment store. Zero values take defaults.
type StoreOptions struct {
	// SealRows is the tail size at which a full segment is carved off to
	// disk during ingest. Default 8192.
	SealRows int
	// CompactTargetRows: segments below this are merge candidates; merged
	// runs stop growing past it. Default 65536.
	CompactTargetRows int
	// CompactMinSegs is the shortest adjacent run of small segments worth
	// merging. Default 4.
	CompactMinSegs int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SealRows <= 0 {
		o.SealRows = 8192
	}
	if o.CompactTargetRows <= 0 {
		o.CompactTargetRows = 65536
	}
	if o.CompactMinSegs <= 1 {
		o.CompactMinSegs = 4
	}
	return o
}

// store is the on-disk half of a warehouse: it owns the directory,
// allocates segment sequence numbers, and serializes the
// checkpoint/compaction commit protocol.
type store struct {
	dir  string
	opts StoreOptions
	seq  atomic.Uint64 // last allocated sequence number

	mu       sync.Mutex // serializes checkpoint, compaction, manifest writes
	tailFile string     // committed tail file, "" when no table had a tail
	orphans  []string   // superseded files, deleted after the next commit
	// committed is the manifest this process last wrote, less its sequence
	// number and tail name: a commit that would write the same again, from
	// the same tail images, has nothing to make durable.
	committed []byte

	lookups lookupCache // per-segment hash indexes and restart points
	bufs    bufList     // the buffers segment files are read into
}

// fsRetry bounds retries around the transient filesystem steps of the
// commit protocol (create/rename during rotation, EMFILE). Swappable for
// fault-injection tests.
var fsRetry = retry.Default

// manifest is the committed snapshot descriptor.
type manifest struct {
	Version int        `json:"version"`
	Seq     uint64     `json:"seq"`
	Tail    string     `json:"tail,omitempty"`
	Tables  []manTable `json:"tables"`
}

// manTable is one table of the manifest. Its tail image is TailBytes long
// and follows those of the tables before it in the tail file; a table with
// no unsealed rows has none.
type manTable struct {
	Name      string    `json:"name"`
	Cols      []Column  `json:"cols"`
	Segments  []segMeta `json:"segments,omitempty"`
	TailRows  int       `json:"tail_rows,omitempty"`
	TailBytes int       `json:"tail_bytes,omitempty"`
}

// segMeta describes one committed (or about-to-commit) segment file. The
// zone maps ride in the manifest so query pruning and reopen never touch
// segment bytes.
type segMeta struct {
	File  string    `json:"file"`
	Rows  int       `json:"rows"`
	Bytes int64     `json:"bytes"`
	Zones []zoneMap `json:"zones"`
}

// OpenDir opens (or initializes) the warehouse in dir. A directory with a
// manifest reopens to exactly its last checkpointed state — uncommitted
// segment files and torn temp files from a crash are swept — and a fresh
// directory starts an empty warehouse whose ingest paths spill sealed
// segments as they fill.
func OpenDir(dir string, opts StoreOptions) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mscopedb: open store %s: %w", dir, err)
	}
	st := &store{dir: dir, opts: opts}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		db := Open()
		db.store = st
		for _, t := range db.tables {
			t.seal = &sealedPart{store: st}
		}
		if err := st.sweep(nil); err != nil {
			return nil, err
		}
		return db, nil
	}
	if err != nil {
		return nil, fmt.Errorf("mscopedb: open store %s: %w", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("mscopedb: %s: corrupt manifest: %w", dir, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("mscopedb: %s: manifest version %d, want %d", dir, man.Version, manifestVersion)
	}
	tails, err := st.readTails(&man) // each manifest table's unsealed rows
	if err != nil {
		return nil, fmt.Errorf("mscopedb: %s: %w", dir, err)
	}
	st.seq.Store(man.Seq)
	st.tailFile = man.Tail

	db := &DB{tables: make(map[string]*Table, len(man.Tables)), store: st}
	for i, mt := range man.Tables {
		t, err := NewTable(mt.Name, mt.Cols)
		if err != nil {
			return nil, fmt.Errorf("mscopedb: %s: %w", dir, err)
		}
		t.data = tails[i]
		sp := &sealedPart{store: st}
		for _, sm := range mt.Segments {
			if len(sm.Zones) != len(mt.Cols) {
				return nil, fmt.Errorf("mscopedb: %s: segment %s has %d zones for %d columns",
					dir, sm.File, len(sm.Zones), len(mt.Cols))
			}
			sp.segs = append(sp.segs, sealedSeg{meta: sm, start: sp.rows})
			sp.rows += sm.Rows
		}
		t.seal = sp
		t.rows = sp.rows + mt.TailRows
		db.tables[mt.Name] = t
	}
	if err := st.sweep(&man); err != nil {
		return nil, err
	}
	if err := db.loadLedger(); err != nil {
		return nil, fmt.Errorf("mscopedb: %s: %w", dir, err)
	}
	return db, nil
}

// readTails decodes the tail file into each table's unsealed rows. Every
// failure is a SegmentError naming the file: a tail image is read back
// through the checks any segment is.
func (s *store) readTails(man *manifest) ([][]colData, error) {
	var raw []byte
	if man.Tail != "" {
		var err error
		if raw, err = os.ReadFile(filepath.Join(s.dir, man.Tail)); err != nil {
			return nil, &SegmentError{File: man.Tail, Err: err}
		}
	}
	tails := make([][]colData, len(man.Tables))
	for i, mt := range man.Tables {
		tails[i] = make([]colData, len(mt.Cols))
		if mt.TailRows == 0 {
			continue
		}
		// A size the file cannot hold leaves an image that fails its checks.
		size := min(len(raw), max(mt.TailBytes, 0))
		img, err := parseSegment(raw[:size], mt.Name, mt.Cols)
		if err == nil && img.rows != mt.TailRows {
			err = fmt.Errorf("%d tail rows of %s, manifest says %d", img.rows, mt.Name, mt.TailRows)
		}
		for ci := 0; err == nil && ci < len(mt.Cols); ci++ {
			tails[i][ci], err = img.column(ci, nil)
		}
		if err != nil {
			return nil, &SegmentError{File: man.Tail, Err: err}
		}
		raw = raw[size:]
	}
	if len(raw) != 0 {
		return nil, &SegmentError{File: man.Tail, Err: fmt.Errorf("%d bytes past the last tail image", len(raw))}
	}
	return tails, nil
}

// Checkpoint commits the warehouse: full segments are carved from every
// table's tail, the remaining tails are written as one file of segment
// images, and the manifest is atomically replaced. On return, a crash (or
// kill -9) loses nothing recorded before the call. A no-op on in-memory
// warehouses, so ingest paths call it unconditionally.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	db.store.mu.Lock()
	defer db.store.mu.Unlock()
	return db.checkpointLocked()
}

// Self-telemetry of the write path: one span per commit and per segment
// encoded, the bytes each put on disk, and how many of a commit's tail
// bytes no commit had written before (encoded by it or by DB.Encode).
var (
	ctrTailBytes   = selfobs.NewCounter(selfobs.PipeDB, "checkpoint", "tail_bytes")
	ctrTailEncoded = selfobs.NewCounter(selfobs.PipeDB, "checkpoint", "tail_bytes_encoded")
	ctrSegBytes    = selfobs.NewCounter(selfobs.PipeDB, "seal", "segment_bytes")
)

// checkpointLocked is Checkpoint with store.mu held (compaction commits
// through it too).
func (db *DB) checkpointLocked() error {
	st := db.store
	obs := selfobs.Begin(selfobs.PipeDB, "checkpoint", "-", "-")
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)

	// Carve any full chunks still in memory, then gather the tail images,
	// encoding only those a change dropped since the last commit and
	// DB.Encode did not hand over.
	var tails bytes.Buffer
	tailRows, fresh := 0, 0
	man := manifest{Version: manifestVersion}
	for _, name := range names {
		t := db.tables[name]
		if err := t.spillFull(); err != nil {
			return err
		}
		sp := t.seal
		sp.mu.RLock()
		mt := manTable{Name: t.name, Cols: t.cols, TailRows: t.rows - sp.rows}
		data := t.data
		for _, ss := range sp.segs {
			mt.Segments = append(mt.Segments, ss.meta)
		}
		sp.mu.RUnlock()
		if mt.TailRows > 0 {
			if t.tailImg == nil {
				img, _, err := encodeSegment(t.name, mt.Cols, data, mt.TailRows)
				if err != nil {
					return err
				}
				t.tailImg, t.tailNew = img, true
			}
			if t.tailNew {
				fresh += len(t.tailImg)
				t.tailNew = false
			}
			tails.Write(t.tailImg)
			mt.TailBytes = len(t.tailImg)
			tailRows += mt.TailRows
		}
		man.Tables = append(man.Tables, mt)
	}
	ctrTailEncoded.Add(int64(fresh))

	body, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("mscopedb: encode manifest: %w", err)
	}
	if fresh == 0 && len(st.orphans) == 0 && bytes.Equal(body, st.committed) {
		return nil // what is on disk already says exactly this
	}
	man.Seq = st.seq.Add(1)
	if tails.Len() > 0 {
		man.Tail = fmt.Sprintf("tail-%08d.seg", man.Seq)
		if err := st.writeAtomic(man.Tail, tails.Bytes()); err != nil {
			return err
		}
	}
	mj, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return fmt.Errorf("mscopedb: encode manifest: %w", err)
	}
	if err := st.writeAtomic(manifestName, mj); err != nil {
		return err
	}
	st.committed = body
	// Committed: the previous tail and any superseded segments are garbage.
	if st.tailFile != "" {
		st.orphans = append(st.orphans, st.tailFile)
	}
	st.tailFile = man.Tail
	for _, f := range st.orphans {
		os.Remove(filepath.Join(st.dir, f))
	}
	st.orphans = nil
	ctrTailBytes.Add(int64(tails.Len()))
	obs.End(int64(tailRows), 0)
	return nil
}

// writeAtomic writes name via temp-file + rename, fsyncing before the
// rename so the commit point is on stable storage.
func (s *store) writeAtomic(name string, data []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	final := filepath.Join(s.dir, name)
	return fsRetry.Do(func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, final)
	})
}

// writeSegment persists one encoded segment image and returns its
// relative file name. Sequence allocation is atomic, so concurrent
// spills from the appender and the compactor never collide.
func (s *store) writeSegment(table string, img []byte) (string, error) {
	name := fmt.Sprintf("seg-%08d-%s.seg", s.seq.Add(1), fsSafe(table))
	if err := s.writeAtomic(name, img); err != nil {
		return "", fmt.Errorf("mscopedb: write segment %s: %w", name, err)
	}
	return name, nil
}

// bufList is a store's free list of the buffers segment files are read
// into: every read takes the whole file (the checksum covers all of it),
// and zeroing a fresh buffer per file would cost as much as decoding it. A
// reader hands its buffer back when done with the image (segImage.release,
// or Result.Release for a spilled query's). Unlike a sync.Pool it outlives
// a garbage collection, so it keeps no more buffers than a scan has
// segment reads in flight at once, one per GOMAXPROCS slot: each buffer is
// one file's size, so the list holds at most what those reads hold anyway.
// A read takes the smallest kept buffer that fits, and the list keeps the
// largest buffers handed back: a table's small segments do not hold the
// slots while every read of a larger table's makes a buffer of its own.
type bufList struct {
	mu   sync.Mutex
	free []*[]byte
}

// max is the most buffers the list keeps.
func (l *bufList) max() int { return runtime.GOMAXPROCS(0) }

// get takes the smallest kept buffer that holds size bytes, or makes one.
func (l *bufList) get(size int64) *[]byte {
	l.mu.Lock()
	best := -1
	for i, b := range l.free {
		if c := cap(*b); int64(c) >= size && (best < 0 || c < cap(*l.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := l.free[best]
		l.free = slices.Delete(l.free, best, best+1)
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	b := make([]byte, 0, size+size/8)
	return &b
}

// put keeps b for the next read: in a free slot, or else in place of the
// smallest kept buffer when b is larger.
func (l *bufList) put(b *[]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max() {
		l.free = append(l.free, b)
		return
	}
	small := 0
	for i, k := range l.free {
		if cap(*k) < cap(*l.free[small]) {
			small = i
		}
	}
	if cap(*b) > cap(*l.free[small]) {
		l.free[small] = b
	}
}

// openSegment reads one segment file and verifies it against the expected
// schema and the manifest's row count, decoding nothing. Every failure is a
// SegmentError naming the file. One image read is one count of ScanStats.
// A caller that is done with the image before it returns calls release.
func (s *store) openSegment(sm segMeta, table string, cols []Column) (*segImage, error) {
	f, err := os.Open(filepath.Join(s.dir, sm.File))
	if err != nil {
		var pe *fs.PathError // the error names the file already
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	defer f.Close()
	buf := s.bufs.get(sm.Bytes + 1)
	// One byte past the manifest's size, so a file that grew is caught.
	raw := (*buf)[:sm.Bytes+1]
	n, err := io.ReadFull(f, raw)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		s.bufs.put(buf)
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	img, err := parseSegment(raw[:n], table, cols)
	if err == nil && img.rows != sm.Rows {
		err = fmt.Errorf("%d rows, manifest says %d", img.rows, sm.Rows)
	}
	if err != nil {
		s.bufs.put(buf)
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	img.buf, img.file, img.st = buf, sm.File, s
	statSegsScanned.Add(1)
	ctrSegsDecoded.Add(1)
	return img, nil
}

// readSegment loads one segment file and decodes every column.
func (s *store) readSegment(sm segMeta, table string, cols []Column) ([]colData, error) {
	img, err := s.openSegment(sm, table, cols)
	if err != nil {
		return nil, err
	}
	defer img.release()
	data := make([]colData, len(cols))
	for ci := range data {
		if data[ci], err = img.column(ci, nil); err != nil {
			return nil, &SegmentError{File: sm.File, Err: err}
		}
	}
	return data, nil
}

// addOrphans schedules superseded files for deletion after the next
// commit; deleting earlier would tear the currently committed manifest.
func (s *store) addOrphans(files ...string) {
	s.mu.Lock()
	s.orphans = append(s.orphans, files...)
	s.mu.Unlock()
	s.lookups.drop(files)
}

// sweep deletes store-owned files the manifest does not reference: torn
// temp files and segments spilled after the last checkpoint. Run at open,
// before anything new is written.
func (s *store) sweep(man *manifest) error {
	keep := map[string]bool{manifestName: true}
	if man != nil {
		keep[man.Tail] = true
		for _, mt := range man.Tables {
			for _, sm := range mt.Segments {
				keep[sm.File] = true
			}
		}
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("mscopedb: sweep %s: %w", s.dir, err)
	}
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || keep[n] {
			continue
		}
		owned := strings.HasPrefix(n, "seg-") || strings.HasPrefix(n, "tail-") ||
			strings.HasSuffix(n, ".tmp")
		if owned {
			os.Remove(filepath.Join(s.dir, n))
		}
	}
	return nil
}

// fsSafe maps a table name into a filename fragment. The manifest is
// authoritative — the fragment is only for operator legibility.
func fsSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}
