// Package importer implements the mScope Data Importer: the last pipeline
// stage, which attaches tables to the warehouse and records provenance in
// the mscope_ingests static table. The batch ingest builds its tables in
// memory and calls Install; LoadFile, which bulk-loads the converter's CSV
// files, is the independent reader half that tests re-load exported
// artifacts through.
package importer

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// Loaded describes one completed load.
type Loaded struct {
	Table string
	Rows  int
}

// LoadFile creates the schema's table in db and loads the CSV into it.
// The CSV header must match the schema's column order exactly — the
// converter wrote both, so a mismatch means the files are unrelated.
func LoadFile(db *mscopedb.DB, csvPath, schemaPath string) (Loaded, error) {
	tbl, err := buildTable(csvPath, schemaPath)
	if err != nil {
		return Loaded{}, err
	}
	return Install(db, tbl, csvPath)
}

// Install attaches a built table to db and records its provenance. The
// batch ingest builds tables on concurrent workers and calls Install from
// its single in-order appender, so the warehouse and its ledger mutate in
// sorted-file order whatever the worker count.
func Install(db *mscopedb.DB, tbl *mscopedb.Table, csvPath string) (Loaded, error) {
	var out Loaded
	if err := db.Install(tbl); err != nil {
		return out, fmt.Errorf("importer: create table: %w", err)
	}
	out.Table = tbl.Name()
	out.Rows = tbl.Rows()
	// Loads are stamped with the simulation epoch, not the wall clock: the
	// warehouse must be reproducible byte for byte across runs.
	if err := db.RecordIngest(tbl.Name(), csvPath, out.Rows, simtime.Epoch); err != nil {
		return out, fmt.Errorf("importer: record ingest: %w", err)
	}
	return out, nil
}

// buildTable loads the converter's CSV into a standalone table built from
// the schema, touching no warehouse.
func buildTable(csvPath, schemaPath string) (*mscopedb.Table, error) {
	schema, cols, err := xmlcsv.ReadSchema(schemaPath)
	if err != nil {
		return nil, err
	}
	tbl, err := mscopedb.NewTable(schema.Table, cols)
	if err != nil {
		return nil, fmt.Errorf("importer: create table: %w", err)
	}

	f, err := os.Open(csvPath)
	if err != nil {
		return nil, fmt.Errorf("importer: open %s: %w", csvPath, err)
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<16))
	r.ReuseRecord = true

	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("importer: read header of %s: %w", csvPath, err)
	}
	if len(header) != len(cols) {
		return nil, fmt.Errorf("importer: %s: header has %d columns, schema has %d",
			csvPath, len(header), len(cols))
	}
	for i, h := range header {
		if h != cols[i].Name {
			return nil, fmt.Errorf("importer: %s: header column %d is %q, schema says %q",
				csvPath, i, h, cols[i].Name)
		}
	}

	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("importer: read %s: %w", csvPath, err)
		}
		if err := tbl.AppendStrings(rec); err != nil {
			return nil, fmt.Errorf("importer: load %s row %d: %w", csvPath, tbl.Rows()+1, err)
		}
	}
	return tbl, nil
}
