package mscopedb

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Names of the four static metadata tables (paper Section III-C).
const (
	tableExperiments = "mscope_experiments"
	tableNodes       = "mscope_nodes"
	tableMonitors    = "mscope_monitors"
	tableIngests     = "mscope_ingests"
)

// DB is the warehouse: a catalog of static metadata tables plus
// dynamically created data tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// ingestOff and ingestRows mirror the mscope_ingests ledger as
	// source-file → latest recorded offset / rows, so the per-file
	// idempotency probe at the top of every ingest is O(1) instead of a
	// full ledger scan.
	offMu      sync.Mutex
	ingestOff  map[string]int64
	ingestRows map[string]int64

	// store, when non-nil, backs the warehouse with the on-disk segment
	// store (OpenDir): tables seal full segments to disk as they fill and
	// Checkpoint commits consistent snapshots.
	store *store
}

// Open creates an empty warehouse with the four static tables.
func Open() *DB {
	db := &DB{tables: make(map[string]*Table),
		ingestOff: make(map[string]int64), ingestRows: make(map[string]int64)}
	mustCreate := func(name string, cols []Column) {
		t, err := NewTable(name, cols)
		if err != nil {
			panic(fmt.Sprintf("mscopedb: static table %s: %v", name, err))
		}
		db.tables[name] = t
	}
	mustCreate(tableExperiments, []Column{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "started", Type: TTime},
		{Name: "seed", Type: TInt},
		{Name: "users", Type: TInt},
		{Name: "duration_ms", Type: TInt},
		{Name: "mix", Type: TString},
	})
	mustCreate(tableNodes, []Column{
		{Name: "experiment", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "tier", Type: TString},
		{Name: "cores", Type: TInt},
		{Name: "workers", Type: TInt},
	})
	mustCreate(tableMonitors, []Column{
		{Name: "experiment", Type: TInt},
		{Name: "node", Type: TString},
		{Name: "kind", Type: TString},
		{Name: "file", Type: TString},
	})
	mustCreate(tableIngests, []Column{
		{Name: "tbl", Type: TString},
		{Name: "file", Type: TString},
		{Name: "rows", Type: TInt},
		{Name: "offset", Type: TInt},
		{Name: "loaded", Type: TTime},
	})
	return db
}

// Create adds a dynamic table; the name must be new.
func (db *DB) Create(name string, cols []Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("mscopedb: table %q already exists", name)
	}
	t, err := NewTable(name, cols)
	if err != nil {
		return nil, err
	}
	if db.store != nil {
		t.seal = &sealedPart{store: db.store}
	}
	db.tables[name] = t
	return t, nil
}

// Install attaches a fully built table under its name; the name must be
// new. It is the batch ingest's append path: workers build tables off to
// the side and the single sequenced appender installs each one whole, so
// the warehouse mutates in sorted-file order whatever the worker count. A
// table DB.Encode has encoded for this warehouse's segment size has its
// images written as they are; any other is encoded here.
func (db *DB) Install(t *Table) error {
	if t == nil {
		return fmt.Errorf("mscopedb: install nil table")
	}
	db.mu.Lock()
	if _, exists := db.tables[t.Name()]; exists {
		db.mu.Unlock()
		return fmt.Errorf("mscopedb: table %q already exists", t.Name())
	}
	if db.store == nil || t.encRows != db.store.opts.SealRows {
		t.changed()
	}
	if db.store != nil && t.seal == nil {
		t.seal = &sealedPart{store: db.store}
	}
	db.tables[t.Name()] = t
	db.mu.Unlock()
	// Carve the bulk-built table's full chunks straight to disk, in one
	// pass, so a large install holds at most one seal's worth of rows in
	// memory once the appender moves on.
	return t.spillFull()
}

// Encode encodes, off the warehouse, what Install and the next Checkpoint
// would write for a table not yet installed: each full segment of the
// warehouse's size and the rows past the last. It writes nothing and moves
// no row, so the batch ingest's workers run it on the tables they build
// and the sequenced appender only writes. Changing the table afterwards
// drops the images. A no-op in memory.
func (db *DB) Encode(t *Table) error {
	if db.store == nil || t.seal != nil {
		return nil
	}
	n := db.store.opts.SealRows
	segs, tail, err := encodeTable(t.name, t.cols, t.data, t.rows, n, true)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		segs = nil
	}
	t.segImgs, t.tailImg, t.tailNew, t.encRows = segs, tail, tail != nil, n
	return nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("mscopedb: no table %q", name)
	}
	return t, nil
}

// HasTable reports whether the named table exists — the degraded-mode
// pipeline probes for tables whose source logs may never have arrived.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

// TableNames lists every table, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes a dynamic table. Static tables cannot be dropped.
func (db *DB) Drop(name string) error {
	switch name {
	case tableExperiments, tableNodes, tableMonitors, tableIngests:
		return fmt.Errorf("mscopedb: cannot drop static table %q", name)
	}
	db.mu.Lock()
	t, ok := db.tables[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("mscopedb: no table %q", name)
	}
	delete(db.tables, name)
	db.mu.Unlock()
	// The dropped table's segments die with the next manifest commit
	// (which no longer references them); until then a crash resurrects
	// the table — drops become durable at the next Checkpoint, like
	// appends. Registered outside db.mu: addOrphans takes store.mu and
	// Checkpoint acquires the two in the opposite order.
	if db.store != nil && t.seal != nil {
		t.seal.mu.RLock()
		files := make([]string, 0, len(t.seal.segs))
		for _, ss := range t.seal.segs {
			files = append(files, ss.meta.File)
		}
		t.seal.mu.RUnlock()
		if len(files) > 0 {
			db.store.addOrphans(files...)
		}
	}
	return nil
}

// RecordExperiment appends one experiment row and returns its id.
func (db *DB) RecordExperiment(name string, started time.Time, seed int64, users int, duration time.Duration, mix string) (int64, error) {
	t, err := db.Table(tableExperiments)
	if err != nil {
		return 0, err
	}
	id := int64(t.Rows() + 1)
	if err := t.Append(id, name, started, seed, int64(users), duration.Milliseconds(), mix); err != nil {
		return 0, err
	}
	return id, nil
}

// RecordNode appends one node row.
func (db *DB) RecordNode(experiment int64, name, tier string, cores, workers int) error {
	t, err := db.Table(tableNodes)
	if err != nil {
		return err
	}
	return t.Append(experiment, name, tier, int64(cores), int64(workers))
}

// RecordMonitor appends one monitor row.
func (db *DB) RecordMonitor(experiment int64, node, kind, file string) error {
	t, err := db.Table(tableMonitors)
	if err != nil {
		return err
	}
	return t.Append(experiment, node, kind, file)
}

// RecordIngestAt appends one ingest provenance row carrying the byte
// offset of the source file consumed so far. The ledger makes re-ingest
// idempotent: a file whose recorded offset equals its current size is
// already fully loaded, and a resumed streaming ingest starts tailing at
// the recorded offset instead of re-reading history.
func (db *DB) RecordIngestAt(table, file string, rows int, offset int64, loaded time.Time) error {
	t, err := db.Table(tableIngests)
	if err != nil {
		return err
	}
	if err := t.Append(table, file, int64(rows), offset, loaded); err != nil {
		return err
	}
	db.offMu.Lock()
	db.ingestOff[file] = offset
	db.ingestRows[file] = int64(rows)
	db.offMu.Unlock()
	return nil
}

// loadLedger finishes a warehouse rebuilt from disk: the static tables
// must be there, and the latest-offset maps are refilled from the persisted
// ledger. Rows are append-ordered, so the last row per file wins.
func (db *DB) loadLedger() error {
	for _, name := range []string{tableExperiments, tableNodes, tableMonitors, tableIngests} {
		if db.tables[name] == nil {
			return fmt.Errorf("static table %s missing", name)
		}
	}
	db.ingestOff = make(map[string]int64)
	db.ingestRows = make(map[string]int64)
	return db.tables[tableIngests].Scan([]string{"file", "offset", "rows"}, func(c *Chunk) error {
		for r, file := range c.Strs(0) {
			db.ingestOff[file] = c.Ints(1)[r]
			db.ingestRows[file] = c.Ints(2)[r]
		}
		return nil
	})
}

// LatestIngestOffset returns the most recently recorded byte offset for a
// source file, and whether the ledger has any entry for it. The ledger is
// append-only and the last row for a file wins; the answer comes from a
// per-file map maintained alongside the ledger, not a table scan.
func (db *DB) LatestIngestOffset(file string) (int64, bool) {
	db.offMu.Lock()
	defer db.offMu.Unlock()
	off, ok := db.ingestOff[file]
	return off, ok
}

// LatestIngestRows returns the rows value of the most recent ledger entry
// for a source file. Live degraded-mode checkpoints record the *records
// consumed* here rather than the table rows appended — under aggregate
// fidelity most consumed records never become table rows, so a restarted
// header-format resume that skipped only Table.Rows() records would
// re-consume (and re-promote) the rolled-up remainder. The ledger count is
// the authoritative skip distance; callers take the max of both.
func (db *DB) LatestIngestRows(file string) (int64, bool) {
	db.offMu.Lock()
	defer db.offMu.Unlock()
	n, ok := db.ingestRows[file]
	return n, ok
}
