// Package xmlcsv implements the mScope XMLtoCSV Converter (paper Section
// III-B3): the final transformation stage that turns annotated XML into
// load-ready CSV plus an inferred schema.
//
// Schema inference is bottom-up, exactly as the paper describes: the
// column set is the union of all field names across entries, and each
// column's type is the narrowest type that can store every observed value
// (int → float → string, with time as a parallel arm forced by parser
// hints). LoadFile reads the CSV/schema pair back into a table.
package xmlcsv

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// Converted describes one conversion's outputs.
type Converted struct {
	CSVPath    string
	SchemaPath string
	Rows       int
	Columns    []mscopedb.Column
}

// Schema is the JSON sidecar LoadFile reads.
type Schema struct {
	Table   string         `json:"table"`
	Source  string         `json:"source"`
	Host    string         `json:"host"`
	Columns []SchemaColumn `json:"columns"`
}

// SchemaColumn is one column of the sidecar.
type SchemaColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// ConvertFile converts one mxml document into <table>.csv and
// <table>.schema.json in outDir. The document is read twice: pass one
// infers the schema bottom-up, pass two emits rows in schema order.
func ConvertFile(mxmlPath, outDir string) (Converted, error) {
	inf := NewInference()
	meta, err := scanDoc(mxmlPath, func(e mxml.Entry) error {
		inf.Observe(e)
		return nil
	})
	if err != nil {
		return Converted{}, err
	}
	cols := inf.Columns()
	if cols == nil {
		return Converted{}, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	out := Converted{Columns: cols,
		CSVPath:    filepath.Join(outDir, meta.Table+".csv"),
		SchemaPath: filepath.Join(outDir, meta.Table+".schema.json")}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return out, fmt.Errorf("xmlcsv: create out dir: %w", err)
	}
	schema := Schema{Table: meta.Table, Source: meta.Source, Host: meta.Host}
	header := make([]string, len(cols))
	for i, c := range cols {
		schema.Columns = append(schema.Columns, SchemaColumn{Name: c.Name, Type: c.Type.String()})
		header[i] = c.Name
	}
	sidecar, err := json.MarshalIndent(schema, "", " ")
	if err != nil {
		return out, fmt.Errorf("xmlcsv: write schema: %w", err)
	}
	if err := os.WriteFile(out.SchemaPath, append(sidecar, '\n'), 0o644); err != nil {
		return out, fmt.Errorf("xmlcsv: write schema: %w", err)
	}

	cf, err := os.Create(out.CSVPath)
	if err != nil {
		return out, fmt.Errorf("xmlcsv: create csv: %w", err)
	}
	defer cf.Close()
	bw := bufio.NewWriterSize(cf, 1<<16)
	w := csv.NewWriter(bw)
	if err := w.Write(header); err != nil {
		return out, fmt.Errorf("xmlcsv: write header: %w", err)
	}
	pos := positions(cols)
	row := make([]string, len(cols))
	_, err = scanDoc(mxmlPath, func(e mxml.Entry) error {
		clear(row)
		place(row, pos, e)
		out.Rows++
		return w.Write(row)
	})
	if err != nil {
		return out, err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return out, fmt.Errorf("xmlcsv: flush csv: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return out, fmt.Errorf("xmlcsv: flush: %w", err)
	}
	if err := cf.Close(); err != nil {
		return out, fmt.Errorf("xmlcsv: close csv: %w", err)
	}
	return out, nil
}

// scanDoc opens and streams one mxml file.
func scanDoc(path string, onEntry func(mxml.Entry) error) (mxml.Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return mxml.Meta{}, fmt.Errorf("xmlcsv: open %s: %w", path, err)
	}
	defer f.Close()
	meta, err := mxml.ReadDoc(f, onEntry)
	if err != nil {
		return meta, fmt.Errorf("xmlcsv: read %s: %w", path, err)
	}
	return meta, nil
}

// ReadSchema loads a schema sidecar.
func ReadSchema(path string) (Schema, []mscopedb.Column, error) {
	var s Schema
	data, err := os.ReadFile(path)
	if err != nil {
		return s, nil, fmt.Errorf("xmlcsv: read schema %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, nil, fmt.Errorf("xmlcsv: parse schema %s: %w", path, err)
	}
	if s.Table == "" || len(s.Columns) == 0 {
		return s, nil, fmt.Errorf("xmlcsv: schema %s: missing table or columns", path)
	}
	cols := make([]mscopedb.Column, len(s.Columns))
	for i, c := range s.Columns {
		typ, err := mscopedb.ParseType(c.Type)
		if err != nil {
			return s, nil, fmt.Errorf("xmlcsv: schema %s column %s: %w", path, c.Name, err)
		}
		cols[i] = mscopedb.Column{Name: c.Name, Type: typ}
	}
	return s, cols, nil
}

// LoadFile reads a CSV and schema pair that ConvertFile wrote back into a
// standalone table, touching no warehouse: the independent reader half of
// §III-B, which tests hold the batch ingest's tables against. The CSV
// header must match the schema's column order exactly — the converter
// wrote both, so a mismatch means the files are unrelated.
func LoadFile(csvPath, schemaPath string) (*mscopedb.Table, error) {
	schema, cols, err := ReadSchema(schemaPath)
	if err != nil {
		return nil, err
	}
	tbl, err := mscopedb.NewTable(schema.Table, cols)
	if err != nil {
		return nil, fmt.Errorf("xmlcsv: create table: %w", err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, fmt.Errorf("xmlcsv: open %s: %w", csvPath, err)
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<16))
	r.ReuseRecord = true
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("xmlcsv: read header of %s: %w", csvPath, err)
	}
	if len(header) != len(cols) {
		return nil, fmt.Errorf("xmlcsv: %s: header has %d columns, schema has %d",
			csvPath, len(header), len(cols))
	}
	for i, h := range header {
		if h != cols[i].Name {
			return nil, fmt.Errorf("xmlcsv: %s: header column %d is %q, schema says %q",
				csvPath, i, h, cols[i].Name)
		}
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return tbl, nil
		}
		if err != nil {
			return nil, fmt.Errorf("xmlcsv: read %s: %w", csvPath, err)
		}
		if err := tbl.AppendStrings(rec); err != nil {
			return nil, fmt.Errorf("xmlcsv: load %s row %d: %w", csvPath, tbl.Rows()+1, err)
		}
	}
}

// Inference is the bottom-up schema-inference state: ConvertFile's first
// pass folds a document's entries into it and asks for the column set at
// the end. The batch ingest's table builder settles the same schema cell by
// cell as it stores them, and is tested against this.
type Inference struct {
	// cols is the column set in first-appearance order; the zero type marks
	// a column that has held only empty cells so far.
	cols []mscopedb.Column
	idx  map[string]int
}

// NewInference returns an empty inference.
func NewInference() *Inference {
	return &Inference{idx: make(map[string]int)}
}

// Observe folds one entry's fields into the inference.
func (inf *Inference) Observe(e mxml.Entry) {
	for _, f := range e.Fields {
		i, seen := inf.idx[f.Name]
		if !seen {
			i = len(inf.cols)
			inf.idx[f.Name] = i
			inf.cols = append(inf.cols, mscopedb.Column{Name: f.Name})
		}
		c := &inf.cols[i]
		c.Type = Widen(c.Type, typeText(f.Value, f.Hint).Type)
	}
}

// Columns returns the inferred schema in first-appearance order; nil when
// no fields were observed. Columns with no non-empty values load as
// strings.
func (inf *Inference) Columns() []mscopedb.Column {
	if len(inf.cols) == 0 {
		return nil
	}
	cols := make([]mscopedb.Column, len(inf.cols))
	for i, c := range inf.cols {
		if c.Type == 0 {
			c.Type = mscopedb.TString
		}
		cols[i] = c
	}
	return cols
}

// Row renders one entry as a cell row in schema order: absent fields are
// empty cells, duplicate field names keep the last value.
func Row(e mxml.Entry, cols []mscopedb.Column) []string {
	row := make([]string, len(cols))
	place(row, positions(cols), e)
	return row
}

// positions indexes the schema by column name.
func positions(cols []mscopedb.Column) map[string]int {
	pos := make(map[string]int, len(cols))
	for i, c := range cols {
		pos[c.Name] = i
	}
	return pos
}

// place is the one cell rule of the converter: each field lands in its
// column's cell, a later duplicate overwriting an earlier one.
func place(row []string, pos map[string]int, e mxml.Entry) {
	for _, f := range e.Fields {
		if i, ok := pos[f.Name]; ok {
			row[i] = f.Value
		}
	}
}
