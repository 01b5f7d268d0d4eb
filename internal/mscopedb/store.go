package mscopedb

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gt-elba/milliscope/internal/retry"
)

// The on-disk warehouse layout: a dedicated directory holding immutable
// segment files (seg-<seq>-<table>.seg), one tail snapshot
// (tail-<seq>.gob) with every table's unsealed suffix, and MANIFEST.json.
// The manifest rename is the single commit point — it names the tail file
// and every segment, all written at one consistent cut across all tables
// (including the mscope_ingests ledger), so a reopened warehouse never
// sees data ahead of its provenance ledger or vice versa. Segments
// spilled between checkpoints are durable but uncommitted; reopen deletes
// anything the manifest does not reference, and the idempotent ingest
// ledger re-drives the lost suffix.
const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
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

// Store is the on-disk half of a spill-enabled warehouse: it owns the
// directory, allocates segment sequence numbers, and serializes the
// checkpoint/compaction commit protocol.
type Store struct {
	dir  string
	opts StoreOptions
	seq  atomic.Uint64 // last allocated sequence number

	mu       sync.Mutex // serializes checkpoint, compaction, manifest writes
	tailFile string     // committed tail snapshot, "" before first checkpoint
	orphans  []string   // superseded files, deleted after the next commit

	lookups lookupCache // per-segment hash indexes behind Table.Lookup
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// fsRetry bounds retries around the transient filesystem steps of the
// commit protocol (create/rename during rotation, EMFILE). Swappable for
// fault-injection tests, like persist.go's saveRetry.
var fsRetry = retry.Default

// manifest is the committed snapshot descriptor.
type manifest struct {
	Version int        `json:"version"`
	Seq     uint64     `json:"seq"`
	Tail    string     `json:"tail"`
	Tables  []manTable `json:"tables"`
}

type manTable struct {
	Name     string    `json:"name"`
	Segments []segMeta `json:"segments,omitempty"`
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

// Spilled reports whether the warehouse is backed by an on-disk store.
func (db *DB) Spilled() bool { return db.store != nil }

// SpillDir returns the store directory, or "" for an in-memory warehouse.
func (db *DB) SpillDir() string {
	if db.store == nil {
		return ""
	}
	return db.store.dir
}

// OpenDir opens (or initializes) a spill-backed warehouse in dir: the
// durable sibling of Open. A directory with a manifest reopens to exactly
// its last checkpointed state — uncommitted segment files and torn temp
// files from a crash are swept — and a fresh directory starts an empty
// warehouse whose ingest paths spill sealed segments as they fill.
func OpenDir(dir string, opts StoreOptions) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mscopedb: open store %s: %w", dir, err)
	}
	st := &Store{dir: dir, opts: opts}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		db := Open()
		db.attach(st)
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
	st.seq.Store(man.Seq)
	st.tailFile = man.Tail

	// The tail snapshot carries every table's schema and unsealed suffix.
	tf, err := os.Open(filepath.Join(dir, man.Tail))
	if err != nil {
		return nil, fmt.Errorf("mscopedb: %s: tail snapshot: %w", dir, err)
	}
	var snap dbSnapshot
	derr := gob.NewDecoder(bufio.NewReaderSize(tf, 1<<20)).Decode(&snap)
	tf.Close()
	if derr != nil {
		return nil, fmt.Errorf("mscopedb: %s: decode tail %s: %w", dir, man.Tail, derr)
	}

	segsOf := make(map[string][]segMeta, len(man.Tables))
	for _, mt := range man.Tables {
		segsOf[mt.Name] = mt.Segments
	}
	db := &DB{
		tables:     make(map[string]*Table, len(snap.Tables)),
		ingestOff:  make(map[string]int64),
		ingestRows: make(map[string]int64),
	}
	for _, ts := range snap.Tables {
		t, err := NewTable(ts.Name, ts.Cols)
		if err != nil {
			return nil, fmt.Errorf("mscopedb: %s: %w", dir, err)
		}
		t.data = ts.Data
		for i, cd := range t.data {
			n := len(cd.Ints) + len(cd.Floats) + len(cd.Times) + len(cd.Strs)
			if n != ts.Rows {
				return nil, fmt.Errorf("mscopedb: %s: table %s column %s has %d tail values for %d rows",
					dir, ts.Name, ts.Cols[i].Name, n, ts.Rows)
			}
		}
		sp := &sealedPart{store: st}
		start := 0
		for _, sm := range segsOf[ts.Name] {
			if len(sm.Zones) != len(ts.Cols) {
				return nil, fmt.Errorf("mscopedb: %s: segment %s has %d zones for %d columns",
					dir, sm.File, len(sm.Zones), len(ts.Cols))
			}
			sp.segs = append(sp.segs, sealedSeg{meta: sm, start: start})
			start += sm.Rows
		}
		sp.rows = start
		t.seal = sp
		t.rows = start + ts.Rows
		db.tables[ts.Name] = t
		delete(segsOf, ts.Name)
	}
	for name := range segsOf {
		return nil, fmt.Errorf("mscopedb: %s: manifest table %s missing from tail snapshot", dir, name)
	}
	for _, name := range []string{TableExperiments, TableNodes, TableMonitors, TableIngests} {
		if _, ok := db.tables[name]; !ok {
			return nil, fmt.Errorf("mscopedb: %s: static table %s missing", dir, name)
		}
	}
	db.store = st
	if err := st.sweep(&man); err != nil {
		return nil, err
	}
	// Rebuild the latest-offset maps from the persisted ledger (reads
	// through the seal-aware accessors; the last row per file wins).
	if t := db.tables[TableIngests]; t != nil {
		fi, oi, ri := t.ColIndex("file"), t.ColIndex("offset"), t.ColIndex("rows")
		if fi >= 0 && oi >= 0 {
			for r := 0; r < t.Rows(); r++ {
				db.ingestOff[t.Str(fi, r)] = t.Int(oi, r)
				if ri >= 0 {
					db.ingestRows[t.Str(fi, r)] = t.Int(ri, r)
				}
			}
		}
	}
	return db, nil
}

// attach wires a store into a warehouse, sealing every existing table.
func (db *DB) attach(st *Store) {
	db.store = st
	for _, t := range db.tables {
		t.seal = &sealedPart{store: st}
	}
}

// AttachStore converts an in-memory warehouse (Open or the legacy gob
// Load) into a spill-backed one rooted at an empty directory — the
// migration path of `mscope migrate-db`. The data is not written until
// the first Checkpoint.
func (db *DB) AttachStore(dir string, opts StoreOptions) error {
	if db.store != nil {
		return fmt.Errorf("mscopedb: warehouse already has a store at %s", db.store.dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mscopedb: attach store %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return fmt.Errorf("mscopedb: %s already holds a warehouse (manifest present)", dir)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.attach(&Store{dir: dir, opts: opts.withDefaults()})
	return nil
}

// Checkpoint commits the warehouse: full segments are carved from every
// table's tail, the remaining tails are snapshotted, and the manifest is
// atomically replaced. On return, a crash (or kill -9) loses nothing
// recorded before the call. A no-op on in-memory warehouses, so ingest
// paths call it unconditionally.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	db.store.mu.Lock()
	defer db.store.mu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked is Checkpoint with store.mu held (compaction commits
// through it too).
func (db *DB) checkpointLocked() error {
	st := db.store
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)

	// Carve any full chunks still in memory, then snapshot the tails.
	var snap dbSnapshot
	man := manifest{Version: manifestVersion, Tail: ""}
	for _, name := range names {
		t := db.tables[name]
		if err := t.spillFull(); err != nil {
			return err
		}
		sp := t.seal
		sp.mu.RLock()
		tailRows := t.rows - sp.rows
		snap.Tables = append(snap.Tables, tableSnapshot{
			Name: t.name, Cols: t.cols, Data: t.data, Rows: tailRows,
		})
		mt := manTable{Name: t.name}
		for _, ss := range sp.segs {
			mt.Segments = append(mt.Segments, ss.meta)
		}
		sp.mu.RUnlock()
		man.Tables = append(man.Tables, mt)
	}

	tailName := fmt.Sprintf("tail-%08d.gob", st.seq.Add(1))
	var buf strings.Builder
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("mscopedb: encode tail snapshot: %w", err)
	}
	if err := st.writeAtomic(tailName, []byte(buf.String())); err != nil {
		return err
	}
	man.Seq = st.seq.Load()
	man.Tail = tailName
	mj, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return fmt.Errorf("mscopedb: encode manifest: %w", err)
	}
	if err := st.writeAtomic(manifestName, mj); err != nil {
		return err
	}
	// Committed: the previous tail and any superseded segments are garbage.
	if st.tailFile != "" && st.tailFile != tailName {
		st.orphans = append(st.orphans, st.tailFile)
	}
	st.tailFile = tailName
	for _, f := range st.orphans {
		os.Remove(filepath.Join(st.dir, f))
	}
	st.orphans = nil
	return nil
}

// writeAtomic writes name via temp-file + rename, fsyncing before the
// rename so the commit point is on stable storage.
func (s *Store) writeAtomic(name string, data []byte) error {
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
func (s *Store) writeSegment(table string, img []byte) (string, error) {
	name := fmt.Sprintf("seg-%08d-%s.seg", s.seq.Add(1), fsSafe(table))
	if err := s.writeAtomic(name, img); err != nil {
		return "", fmt.Errorf("mscopedb: write segment %s: %w", name, err)
	}
	return name, nil
}

// segBufs recycles the buffers segment files are read into: a scan reads
// every file of a table whole (the checksum covers all of it), and zeroing
// a fresh buffer per file would cost as much as decoding it.
var segBufs sync.Pool

// openSegment reads one segment file and verifies it against the expected
// schema and the manifest's row count, decoding nothing. Every failure is a
// SegmentError naming the file. One image read is one count of ScanStats.
// A caller that is done with the image before it returns calls release.
func (s *Store) openSegment(sm segMeta, table string, cols []Column) (*segImage, error) {
	f, err := os.Open(filepath.Join(s.dir, sm.File))
	if err != nil {
		var pe *fs.PathError // the error names the file already
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	defer f.Close()
	buf, _ := segBufs.Get().(*[]byte)
	if buf == nil || int64(cap(*buf)) < sm.Bytes {
		b := make([]byte, 0, sm.Bytes+sm.Bytes/8)
		buf = &b
	}
	// One byte past the manifest's size, so a file that grew is caught.
	raw := (*buf)[:min(int64(cap(*buf)), sm.Bytes+1)]
	n, err := io.ReadFull(f, raw)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	img, err := parseSegment(raw[:n], table, cols)
	if err == nil && img.rows != sm.Rows {
		err = fmt.Errorf("%d rows, manifest says %d", img.rows, sm.Rows)
	}
	if err != nil {
		return nil, &SegmentError{File: sm.File, Err: err}
	}
	img.buf = buf
	statSegsScanned.Add(1)
	ctrSegsDecoded.Add(1)
	return img, nil
}

// readSegment loads one segment file and decodes every column.
func (s *Store) readSegment(sm segMeta, table string, cols []Column) ([]colData, error) {
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
func (s *Store) addOrphans(files ...string) {
	s.mu.Lock()
	s.orphans = append(s.orphans, files...)
	s.mu.Unlock()
	s.lookups.drop(files)
}

// sweep deletes store-owned files the manifest does not reference: torn
// temp files and segments spilled after the last checkpoint. Run at open,
// before anything new is written.
func (s *Store) sweep(man *manifest) error {
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
