package transform

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// fileAction is the planning decision for one directory entry.
type fileAction int

const (
	actSkip      fileAction = iota // no binding in the plan
	actUnchanged                   // ledger offset equals current size
	actProcess                     // parse, infer, build, install
)

// fileJob carries one directory entry through the ingest: the planning
// decision, the worker's output channel, and everything the sequencer
// needs to apply side effects in sorted-name order (size also orders the
// workers' queue).
type fileJob struct {
	name    string
	full    string
	binding Binding
	size    int64
	action  fileAction
	// rebuild names the table to drop before install when the ledger shows
	// the source changed since it was loaded.
	rebuild string
	// preErr is a planning-stage failure (stat); the sequencer surfaces it
	// when — and only when — every earlier file has been dealt with.
	preErr error
	out    chan fileOutcome
}

// fileOutcome is everything a worker produced for one file: the table
// comes with its segment and tail images encoded.
type fileOutcome struct {
	fr  FileResult
	tbl *mscopedb.Table
	err error
}

// IngestDirWithOptions is the batch ingest engine. A planner decides per
// directory entry whether it is skipped, unchanged or processed;
// Options.Workers goroutines run processFile for the latter, taking the
// costliest files first, and each worker also encodes its table's segment
// and tail images (DB.Encode); and a single sequenced appender — the only
// goroutine that touches db or the report — walks the files in sorted-name
// order and applies every warehouse side effect (drop-for-rebuild, table
// install, which only writes the images, the ledger row, the commit, report
// entries, policy decisions). The result is therefore the same for every
// worker count: byte-identical warehouse dumps, reports and quarantine
// sinks, and the same first error under FailFast.
//
// Under Quarantine, per-file rejections land in Report.Failed and the
// ingest continues; infrastructure errors (unreadable directory, schema or
// warehouse-load failures on accepted records) are fatal under both
// policies.
func IngestDirWithOptions(db *mscopedb.DB, logDir, workDir string, plan *Plan, opts Options) (Report, error) {
	var rep Report
	if err := CheckBudget(opts.ErrorBudget); err != nil {
		return rep, fmt.Errorf("transform: %w", err)
	}
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return rep, fmt.Errorf("transform: read log dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic ingest order

	// Plan every file before spawning workers. Ledger reads are safe to
	// hoist: this ingest's own ledger writes are keyed by source path, and
	// each path occurs once per directory scan.
	jobs := make([]*fileJob, 0, len(names))
	for _, name := range names {
		full := filepath.Join(logDir, name)
		b, ok := plan.Find(name)
		if !ok {
			jobs = append(jobs, &fileJob{name: name, action: actSkip})
			continue
		}
		j := &fileJob{name: name, full: full, binding: b, action: actProcess,
			out: make(chan fileOutcome, 1)}
		jobs = append(jobs, j)
		info, err := os.Stat(full)
		if err != nil {
			j.preErr = fmt.Errorf("transform: stat %s: %w", full, err)
			continue
		}
		j.size = info.Size()
		if off, known := db.LatestIngestOffset(full); known {
			if off == j.size {
				// Fully loaded by a previous ingest of this warehouse —
				// skipping keeps re-ingest idempotent.
				j.action = actUnchanged
			} else {
				// The file changed since it was loaded (grew, or was
				// rewritten by rotation): rebuild its table from scratch
				// rather than appending duplicates on top of stale rows.
				j.rebuild = HostOf(full, b) + "_" + b.TableSuffix
			}
		}
	}

	// The workers take the costliest files first: the largest, by name among
	// equals, so a large file late in name order does not parse alone at the
	// end while the other workers idle. The sequencer below still consumes
	// in name order. No worker waits on it (each job's out holds its one
	// outcome), so every file it waits for is started as soon as a worker is
	// free; a worker that waited for the sequencer could deadlock it.
	queue := make([]*fileJob, 0, len(jobs))
	for _, j := range jobs {
		if j.action == actProcess && j.preErr == nil {
			queue = append(queue, j)
		}
	}
	slices.SortStableFunc(queue, func(a, b *fileJob) int { return cmp.Compare(b.size, a.size) })
	work := make(chan *fileJob, len(queue))
	for _, j := range queue {
		work <- j
	}
	close(work)
	// No worker outlives the ingest: an early return stops them from taking
	// another file and waits for the ones mid-file, so nothing is written
	// under workDir after IngestDirWithOptions returns.
	var wg sync.WaitGroup
	defer wg.Wait()
	var aborted atomic.Bool
	defer aborted.Store(true)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for range min(workers, len(work)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				if aborted.Load() {
					return
				}
				j.out <- processFile(db, j, workDir, opts)
			}
		}()
	}

	obs := selfobs.NewBuf()
	defer obs.Close()
	for _, j := range jobs {
		switch {
		case j.action == actSkip:
			rep.Skipped = append(rep.Skipped, j.name)
			continue
		case j.preErr != nil:
			return rep, j.preErr
		case j.action == actUnchanged:
			rep.Unchanged = append(rep.Unchanged, j.name)
			continue
		}
		o := <-j.out
		if j.rebuild != "" && db.HasTable(j.rebuild) {
			// The stale table goes even when the file then fails or is
			// rejected: its rows no longer describe the source.
			if err := db.Drop(j.rebuild); err != nil {
				return rep, fmt.Errorf("transform: rebuild %s: %w", j.rebuild, err)
			}
		}
		if o.err != nil {
			if opts.Policy == Quarantine && errors.Is(o.err, errFileRejected) {
				rep.Failed = append(rep.Failed, FileFailure{Input: j.full, Err: o.err})
				continue
			}
			return rep, o.err
		}
		rep.Files = append(rep.Files, o.fr)
		sp := obs.Begin(selfobs.PipeIngest, "append", "seq", j.name)
		err := db.Install(o.tbl)
		if err == nil {
			// One ledger row per source file, at its consumed size, so a
			// re-ingest of the same directory into this warehouse skips it.
			// It is stamped with the simulation epoch, not the wall clock:
			// the warehouse must be reproducible byte for byte across runs.
			err = db.RecordIngestAt(o.tbl.Name(), j.full, o.tbl.Rows(), j.size, simtime.Epoch)
		}
		if err == nil {
			// Commit the spill store (no-op in memory): table rows and their
			// ledger entry become durable together, per file, so a killed
			// ingest resumes from completed files instead of from scratch.
			err = db.Checkpoint()
		}
		if err != nil {
			sp.End(0, 1)
			return rep, err
		}
		sp.End(int64(o.tbl.Rows()), 0)
	}
	rep.sortDeterministic()
	return rep, nil
}

// processFile is the per-file pipeline of §III-B, run by a worker: stream
// the file through its parser into a tableBuilder, which types and stores
// every cell as it arrives, settle the schema, export the staged artifacts
// when asked, and hand over the typed table with its segment and tail
// images encoded for db. It performs no warehouse writes.
func processFile(db *mscopedb.DB, j *fileJob, workDir string, opts Options) (out fileOutcome) {
	b := j.binding
	// One span buffer per file worker: every stage span of this file is
	// appended goroutine-locally and flushed once when the worker returns.
	obs := selfobs.NewBuf()
	defer obs.Close()
	p, err := parsers.Get(b.Parser)
	if err != nil {
		return fileOutcome{err: err}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fileOutcome{err: fmt.Errorf("transform: create work dir: %w", err)}
	}
	meta := mxml.Meta{Source: b.Source, Host: HostOf(j.full, b)}
	meta.Table = meta.Host + "_" + b.TableSuffix
	fr := FileResult{Input: j.full, Parser: b.Parser, Table: meta.Table}

	// The ingest policy reaches the parser as its Recover, the convention
	// every parser's inner loop follows: nil fails on the first malformed
	// region, the quarantine sink diverts it and parsing resumes. Customized
	// parsers without a degraded mode keep strict semantics; under
	// Quarantine their failure costs the file, not the ingest.
	sink := &quarantineSink{dir: opts.quarantineDir(workDir), base: filepath.Base(j.full)}
	var rec parsers.Recover
	if _, degradable := p.(parsers.DegradedParser); degradable && opts.Policy == Quarantine {
		rec = sink.record
	}

	var tb tableBuilder
	mxmlPath := filepath.Join(workDir, fr.Table+".mxml")
	if opts.Materialize {
		defer func() {
			if out.err != nil && tb.docFile != nil { // a failed or rejected file exports nothing
				tb.docFile.Close()
				os.Remove(mxmlPath)
			}
		}()
		if err := tb.openDoc(mxmlPath, meta); err != nil {
			return fileOutcome{err: err}
		}
	}
	sp := obs.Begin(selfobs.PipeIngest, "parse", "whole", j.name)
	// The policy reaches the one parse loop as its Recover: nil is fail-fast.
	in, parseErr := os.Open(j.full)
	if parseErr == nil {
		tb.src, tb.size, tb.grow = in, j.size, tb.grown
		parseErr = p.ParseRecords(in, b.Instructions, tb.add, rec)
		in.Close()
	}
	if parseErr == nil {
		sp.End(int64(tb.rows), int64(sink.count()))
	}
	if cerr := sink.close(); cerr != nil && parseErr == nil {
		parseErr = cerr
	}
	if parseErr != nil {
		parseErr = fmt.Errorf("transform: %s: %w", j.full, parseErr)
		if opts.Policy == Quarantine && rec == nil {
			parseErr = fmt.Errorf("transform: %s: %w: parser %q has no degraded mode: %v",
				j.full, errFileRejected, b.Parser, parseErr)
		}
		return fileOutcome{err: parseErr}
	}
	fr.Entries, fr.Quarantined, fr.QuarantinePath = tb.rows, sink.count(), sink.path()
	if rec != nil {
		if err := opts.checkBudget(fr, j.full); err != nil {
			return fileOutcome{fr: fr, err: err}
		}
	}

	sp = obs.Begin(selfobs.PipeIngest, "convert", "whole", j.name)
	cols, err := tb.schema(mxmlPath)
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(fr.Entries), 0)
	if opts.Materialize {
		sp = obs.Begin(selfobs.PipeIngest, "export", "whole", j.name)
		if err := tb.export(workDir); err != nil {
			return fileOutcome{err: err}
		}
		fr.MXMLPath = mxmlPath
		sp.End(int64(fr.Entries), 0)
	}
	sp = obs.Begin(selfobs.PipeIngest, "build", "whole", j.name)
	tbl, err := tb.table(fr.Table, cols)
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(tbl.Rows()), 0)
	if err := db.Encode(tbl); err != nil {
		return fileOutcome{err: err}
	}
	return fileOutcome{fr: fr, tbl: tbl}
}

// tableBuilder is a file's table while the file is still parsing: the
// whole file goes into one Builder, and the finished table is the one
// loading the staged CSV gives. What is the batch ingest's own is what it
// knows of a whole file: how far the file has been read, which sizes the
// columns; the annotated-XML document Options.Materialize exports; and the
// converter's errors for a degenerate document.
type tableBuilder struct {
	Builder
	// doc, under Options.Materialize, is the annotated-XML document in
	// docFile, written as the records arrive.
	doc     *mxml.Writer
	docFile *os.File
	entries parsers.Entries
	// src is the file being parsed, of size bytes: how far it has been read
	// says how much further the columns will grow.
	src  io.Seeker
	size int64
}

// add is the parser's record sink.
func (b *tableBuilder) add(r *parsers.Record) error {
	if b.doc != nil {
		e := b.entries.Entry(r)
		err := b.doc.WriteEntry(e)
		e.Release()
		if err != nil {
			return err
		}
	}
	return b.Add(r)
}

// readAhead is how far past the last record the parser may have read its
// file: the line scanner's and the XML scanner's buffers start at 64 KiB.
const readAhead = 64 << 10

// grown is Builder.grow for a file: once the file is eight thousand rows
// in, how much of it has been read says where its columns will end, to
// within the parser's read-ahead, and they are sized once, for that.
func (b *tableBuilder) grown(n int) int {
	double := max(2*n, 1024)
	if b.src == nil || b.rows < 8192 {
		return double
	}
	done, err := b.src.Seek(0, io.SeekCurrent)
	if err != nil || done < 2*readAhead {
		return double
	}
	// At most twice too many, if all of the read-ahead is still unparsed.
	done -= readAhead
	return n + max(n/64, int(float64(n)*float64(b.size-done)/float64(done)))
}

// schema settles the column set, reproducing the converter's failure modes
// (and exact errors) for degenerate documents. mxmlPath is the path an
// export writes the document to — reported, not necessarily created. A
// column that held only empty cells loads as strings.
func (b *tableBuilder) schema(mxmlPath string) ([]mscopedb.Column, error) {
	if b.emptyName {
		return nil, fmt.Errorf("xmlcsv: read %s: mxml: field without name", mxmlPath)
	}
	if len(b.cols) == 0 {
		return nil, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	cols := make([]mscopedb.Column, len(b.cols))
	for i := range b.cols {
		c := &b.cols[i]
		c.typ = settled(c.typ)
		cols[i] = mscopedb.Column{Name: c.name, Type: c.typ}
	}
	return cols, nil
}

// table back-fills every column to the row count and hands the columns to
// a warehouse table.
func (b *tableBuilder) table(name string, cols []mscopedb.Column) (*mscopedb.Table, error) {
	data := make([]mscopedb.ColumnData, len(b.cols))
	for i := range b.cols {
		c := &b.cols[i]
		b.fill(c)
		data[i] = c.data(0, b.rows)
	}
	tbl, err := mscopedb.NewTable(name, cols)
	if err == nil {
		err = tbl.AppendColumns(b.rows, data)
	}
	if err != nil {
		return nil, fmt.Errorf("transform: create table: %w", err)
	}
	return tbl, nil
}

// openDoc starts the annotated-XML document Options.Materialize exports.
func (b *tableBuilder) openDoc(path string, meta mxml.Meta) (err error) {
	if b.docFile, err = os.Create(path); err != nil {
		return fmt.Errorf("transform: create %s: %w", path, err)
	}
	b.doc = mxml.NewWriter(b.docFile)
	return b.doc.Open(meta)
}

// export completes the staged artifacts of §III-B: it closes the document
// and has the converter derive <table>.schema.json and <table>.csv from it,
// as the staged pipeline did.
func (b *tableBuilder) export(workDir string) error {
	if err := b.doc.Close(); err != nil {
		return err
	}
	if err := b.docFile.Close(); err != nil {
		return fmt.Errorf("transform: close %s: %w", b.docFile.Name(), err)
	}
	_, err := xmlcsv.ConvertFile(b.docFile.Name(), workDir)
	return err
}
