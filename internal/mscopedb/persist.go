package mscopedb

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
)

// The two formats mscopedb no longer writes and still reads, both gob
// images of every table's schema and column data: the whole-warehouse file
// older trees saved (Load, for `mscope migrate-db`), and the tail snapshot
// beside a version-1 manifest (OpenDir, which rewrites the directory as
// version 2 at its next checkpoint).

type dbSnapshot struct {
	Tables []tableSnapshot
}

type tableSnapshot struct {
	Name string
	Cols []Column
	Data []colData
	Rows int
}

// readSnapshot decodes a gob image, checking that every column of every
// table holds exactly the table's row count.
func readSnapshot(path string) (*dbSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap dbSnapshot
	if err := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	for _, ts := range snap.Tables {
		if len(ts.Data) != len(ts.Cols) {
			return nil, fmt.Errorf("%s: table %s has data for %d of %d columns", path, ts.Name, len(ts.Data), len(ts.Cols))
		}
		for i, cd := range ts.Data {
			if n := len(cd.Ints) + len(cd.Floats) + len(cd.Times) + len(cd.Strs); n != ts.Rows {
				return nil, fmt.Errorf("%s: table %s column %s has %d values for %d rows",
					path, ts.Name, ts.Cols[i].Name, n, ts.Rows)
			}
		}
	}
	return &snap, nil
}

// Load reads a whole-warehouse gob file into memory. Nothing writes that
// format any more: AttachStore and Checkpoint turn the result into a store
// directory.
func Load(path string) (*DB, error) {
	snap, err := readSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("mscopedb: load: %w", err)
	}
	db := &DB{tables: make(map[string]*Table, len(snap.Tables))}
	for _, ts := range snap.Tables {
		t, err := NewTable(ts.Name, ts.Cols)
		if err != nil {
			return nil, fmt.Errorf("mscopedb: load %s: %w", path, err)
		}
		t.data, t.rows = ts.Data, ts.Rows
		db.tables[ts.Name] = t
	}
	if err := db.loadLedger(); err != nil {
		return nil, fmt.Errorf("mscopedb: load %s: %w", path, err)
	}
	return db, nil
}
