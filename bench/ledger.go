package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// The layer ledger is the traced run: it drives corpus-bulk (and
// corpus-live for the paced stream metrics) through each layer's public
// functions one layer at a time, under spans, so that what a warehouse row
// and a verdict cost can be read layer by layer and the layers can be added
// up against the end-to-end call that contains them. What does not add up
// is reported as a residual, not hidden.

// How often a ledger stage repeats; its value is the median. Stages that
// take seconds (a whole ingest, drain or distributed ingest) repeat less.
const (
	ledgerReps      = 3
	ledgerHeavyReps = 2
)

// pacedShare is the part of a traced run's --seconds given to the paced
// live phase; the ledger stages take what they take.
const pacedShare = 0.4

// wireBatchRecords is the agent's default MaxBatchRecords.
const wireBatchRecords = 512

// parserFormats maps a log file's suffix to the name its format has in the
// parsers.<fmt>_ns_per_line metrics.
var parserFormats = []struct{ suffix, name string }{
	{"_access.log", "apache"}, {"_mscope.log", "tomcat"}, {"_ctrl.log", "cjdbc"},
	{"_slow.log", "mysql_slow"}, {"_collectl.csv", "collectl_csv"}, {"_sar.xml", "sar_xml"},
}

// logFile is one file of corpus-bulk as the ledger carries it from stage
// to stage.
type logFile struct {
	name, path string
	binding    transform.Binding
	table      string
	format     string
	streamed   bool
	data       []byte
	lines      int
	entries    []mxml.Entry
	cols       []mscopedb.Column
	cells      [][]string
	parseNS    float64 // median over repetitions
	appendNS   float64
}

type ledger struct {
	rec   *recorder
	vals  map[string]float64
	quick bool
	root  string
	bulk  *fixture
	live  *fixture
	files []*logFile
	rows  int // rows of corpus-bulk
	srows int // rows of its streamed files
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

// reps runs fn n times (once when quick) under a numbered repetition and
// returns each call's result.
func (l *ledger) reps(n int, fn func() float64) []float64 {
	if l.quick {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		l.rec.rep = i
		out[i] = fn()
	}
	l.rec.rep = 0
	return out
}

// ns is a span's duration as float nanoseconds.
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// mallocsDuring runs fn and returns the heap allocations it made, by count
// and by bytes.
func mallocsDuring(fn func()) (float64, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// runLedger is the traced run. It returns every per-layer metric and
// leaves trace.json in outDir.
func runLedger(p params, root, outDir string) (map[string]float64, *tally, error) {
	l := &ledger{rec: newRecorder(), vals: make(map[string]float64), quick: p.quick, root: root}
	t := &tally{}
	var err error
	if l.bulk, err = setUp(filepath.Join(root, "bulk"), p.seed, bulkSpec(p.quick), true); err != nil {
		return nil, t, err
	}
	pacedSim := max(time.Duration(float64(p.seconds)*pacedShare)*time.Second, minPaced)
	if l.live, err = setUp(filepath.Join(root, "live"), p.seed, liveSpec(pacedSim, p.quick), false); err != nil {
		return nil, t, err
	}
	// The paced stage goes first, while the file system is still quiet
	// (see runLive).
	stages := []func(*tally) error{
		func(t *tally) error { return l.stagePaced(t, p.pacedWall(pacedSim)) },
		l.stageParse, l.stageInfer, l.stageAppend, l.stageSeal, l.stageRead,
		l.stageIngest, l.stageWire, l.stageStream, l.stageDist, l.stageAnalyse,
		l.stageServe,
	}
	for _, stage := range stages {
		if err := stage(t); err != nil {
			return nil, t, err
		}
		runtime.GC()
	}
	l.set("bench.trace_overhead_pct", l.traceOverheadPct())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, t, err
	}
	return l.vals, t, l.rec.write(filepath.Join(outDir, "trace.json"))
}

// stageParse reads every log and parses it with a releasing emit: what the
// parsers cost when nothing downstream keeps the entries.
func (l *ledger) stageParse(*tally) error {
	entries, err := os.ReadDir(l.bulk.logDir)
	if err != nil {
		return err
	}
	plan := transform.DefaultPlan()
	var readNS float64
	for _, e := range entries {
		b, ok := plan.Find(e.Name())
		if e.IsDir() || !ok {
			continue
		}
		f := &logFile{name: e.Name(), path: filepath.Join(l.bulk.logDir, e.Name()), binding: b,
			streamed: stream.Streamable(plan, e.Name())}
		f.table = transform.HostOf(f.path, b) + "_" + b.TableSuffix
		for _, pf := range parserFormats {
			if strings.HasSuffix(f.name, pf.suffix) {
				f.format = pf.name
			}
		}
		var rerr error
		readNS += ns(l.rec.do("transform.read "+f.name, func() { f.data, rerr = os.ReadFile(f.path) }))
		if rerr != nil {
			return rerr
		}
		f.lines = bytes.Count(f.data, []byte{'\n'})
		l.files = append(l.files, f)
	}
	perFile := make(map[*logFile][]float64)
	var perr error
	var allocs, allocBytes []float64
	totals := l.reps(ledgerReps, func() float64 {
		var total float64
		a, ab := mallocsDuring(func() {
			for _, f := range l.files {
				p, err := parsers.Get(f.binding.Parser)
				if err != nil {
					perr = err
					return
				}
				rows := 0
				d := l.rec.do("parsers.Parse "+f.name, func() {
					err = p.Parse(bytes.NewReader(f.data), f.binding.Instructions, func(e mxml.Entry) error {
						rows++
						e.Release()
						return nil
					})
				})
				if err != nil {
					perr = err
					return
				}
				perFile[f] = append(perFile[f], ns(d))
				total += ns(d)
				if f.table != "" && l.bulk.ref.tables[f.table].Rows != rows {
					perr = fmt.Errorf("ledger: parsed %d rows of %s, reference has %d", rows, f.name, l.bulk.ref.tables[f.table].Rows)
				}
			}
		})
		allocs, allocBytes = append(allocs, a), append(allocBytes, ab)
		return total
	})
	if perr != nil {
		return perr
	}
	var size float64
	byFormat := make(map[string][2]float64) // ns, lines
	for _, f := range l.files {
		f.parseNS = median(perFile[f])
		rows := l.bulk.ref.tables[f.table].Rows
		l.rows += rows
		if f.streamed {
			l.srows += rows
		}
		size += float64(len(f.data))
		acc := byFormat[f.format]
		byFormat[f.format] = [2]float64{acc[0] + f.parseNS, acc[1] + float64(f.lines)}
	}
	rows := float64(l.rows)
	l.set("transform.read_ns_per_row", readNS/rows)
	l.set("parsers.ns_per_row", median(totals)/rows)
	l.set("parsers.allocs_per_row", median(allocs)/rows)
	l.set("parsers.alloc_bytes_per_row", median(allocBytes)/rows)
	l.set("parsers.mb_per_s", size/1e6/(median(totals)/1e9))
	for _, pf := range parserFormats {
		if acc := byFormat[pf.name]; acc[1] > 0 {
			l.set("parsers."+pf.name+"_ns_per_line", acc[0]/acc[1])
		}
	}
	return nil
}

// stageInfer keeps the parsed entries (untimed), then times schema
// inference and row rendering over them.
func (l *ledger) stageInfer(*tally) error {
	var inferNS, rowNS, inferAllocs float64
	for _, f := range l.files {
		p, err := parsers.Get(f.binding.Parser)
		if err != nil {
			return err
		}
		if err := p.Parse(bytes.NewReader(f.data), f.binding.Instructions, func(e mxml.Entry) error {
			f.entries = append(f.entries, e)
			return nil
		}); err != nil {
			return err
		}
		inf := xmlcsv.NewInference()
		a, _ := mallocsDuring(func() {
			inferNS += ns(l.rec.do("xmlcsv.Observe "+f.name, func() {
				for _, e := range f.entries {
					inf.Observe(e)
				}
			}))
		})
		inferAllocs += a
		f.cols = inf.Columns()
		f.cells = make([][]string, len(f.entries))
		rowNS += ns(l.rec.do("xmlcsv.Row "+f.name, func() {
			for i, e := range f.entries {
				f.cells[i] = xmlcsv.Row(e, f.cols)
			}
		}))
	}
	rows := float64(l.rows)
	l.set("xmlcsv.infer_ns_per_row", inferNS/rows)
	l.set("xmlcsv.infer_allocs_per_row", inferAllocs/rows)
	l.set("xmlcsv.row_ns_per_row", rowNS/rows)
	return nil
}

// buildTables appends every file's rendered rows to a fresh table.
func (l *ledger) buildTables() ([]*mscopedb.Table, error) {
	var tables []*mscopedb.Table
	for _, f := range l.files {
		tbl, err := mscopedb.NewTable(f.table, f.cols)
		if err != nil {
			return nil, err
		}
		var aerr error
		d := l.rec.do("mscopedb.AppendStrings "+f.table, func() {
			tbl.Grow(len(f.cells))
			for _, row := range f.cells {
				if aerr = tbl.AppendStrings(row); aerr != nil {
					return
				}
			}
		})
		if aerr != nil {
			return nil, aerr
		}
		f.appendNS = ns(d)
		tables = append(tables, tbl)
	}
	return tables, nil
}

// stageAppend times typing and appending the rendered rows.
func (l *ledger) stageAppend(t *tally) error {
	var tables []*mscopedb.Table
	var err error
	var total float64
	allocs, _ := mallocsDuring(func() { tables, err = l.buildTables() })
	if err != nil {
		return err
	}
	var mem int64
	for i, tbl := range tables {
		total += l.files[i].appendNS
		mem += tbl.SizeBytes()
		t.check(digestTable(tbl) == l.bulk.ref.tables[tbl.Name()],
			"ledger append: table %s differs from the reference", tbl.Name())
	}
	rows := float64(l.rows)
	l.set("mscopedb.append_ns_per_row", total/rows)
	l.set("mscopedb.append_allocs_per_row", allocs/rows)
	l.set("mscopedb.mem_bytes_per_row", float64(mem)/rows)
	return nil
}

// stageSeal installs the tables into a fresh on-disk warehouse (which
// seals their full chunks into segments), commits it, compacts it and
// commits again.
func (l *ledger) stageSeal(*tally) error {
	tables, err := l.buildTables()
	if err != nil {
		return err
	}
	dir := filepath.Join(l.root, "ledger-wh")
	defer os.RemoveAll(dir)
	db, err := mscopedb.OpenDir(dir, mscopedb.StoreOptions{})
	if err != nil {
		return err
	}
	var sealNS float64
	for _, tbl := range tables {
		var ierr error
		sealNS += ns(l.rec.do("mscopedb.Install "+tbl.Name(), func() { ierr = db.Install(tbl) }))
		if ierr != nil {
			return ierr
		}
	}
	var cerr error
	checkpoint := l.rec.do("mscopedb.Checkpoint", func() { cerr = db.Checkpoint() })
	if cerr != nil {
		return cerr
	}
	segments, sealed := 0, 0
	for _, tbl := range tables {
		segments += tbl.Segments()
		sealed += tbl.SealedRows()
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.set("mscopedb.seal_ns_per_row", (sealNS+ns(checkpoint))/float64(max(sealed, 1)))
	l.set("mscopedb.checkpoint_ms", ms(checkpoint))
	l.set("mscopedb.segments", float64(segments))
	l.set("mscopedb.disk_bytes_per_row", float64(disk)/float64(l.rows))

	before, err := fileSizes(dir)
	if err != nil {
		return err
	}
	compact := l.rec.do("mscopedb.Compact", func() { cerr = db.Compact() })
	if cerr != nil {
		return cerr
	}
	after, err := fileSizes(dir)
	if err != nil {
		return err
	}
	var rewritten int64
	for name, size := range after {
		if _, old := before[name]; !old && strings.HasSuffix(name, ".seg") {
			rewritten += size
		}
	}
	l.set("mscopedb.compact_ms", ms(compact))
	l.set("mscopedb.compact_bytes_rewritten", float64(rewritten))
	return nil
}

// readTable is the table the read-side stage scans: the largest one with a
// time column.
const (
	readTable   = "mysql_event"
	readTimeCol = "time"
	readValCol  = "query_time"
)

// openWarehouse reopens the committed corpus-bulk warehouse, the one
// query-mix reads, under a span.
func (l *ledger) openWarehouse() (*mscopedb.DB, time.Duration, error) {
	var db *mscopedb.DB
	var err error
	d := l.rec.do("mscopedb.OpenDir", func() { db, err = mscopedb.OpenDir(l.bulk.whDir, mscopedb.StoreOptions{}) })
	return db, d, err
}

// stageRead times opening the warehouse, a full and a zone-pruned scan of
// one table, and the window aggregation over the full scan.
func (l *ledger) stageRead(t *tally) error {
	var db *mscopedb.DB
	var oerr error
	opens := l.reps(ledgerReps, func() float64 {
		var dur time.Duration
		db, dur, oerr = l.openWarehouse()
		return ms(dur)
	})
	if oerr != nil {
		return oerr
	}
	l.set("mscopedb.open_ms", median(opens))
	tbl, err := db.Table(readTable)
	if err != nil {
		return err
	}
	// The last requests complete after the trial's nominal end, so the
	// full range reaches well past it.
	lo := eventEpoch()
	hi := lo.Add(2 * l.bulk.spec.Sim)
	mid := lo.Add(l.bulk.spec.Sim / 2)
	var full *mscopedb.Result
	var qerr error
	fullMS := l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("mscopedb.Select.Rows full", func() {
			full, qerr = tbl.Select().Between(readTimeCol, lo, hi).Rows()
		}))
	})
	if qerr != nil {
		return qerr
	}
	t.check(full.Len() == l.bulk.ref.tables[readTable].Rows,
		"ledger read: full scan returned %d rows of %d", full.Len(), l.bulk.ref.tables[readTable].Rows)
	var scanned, pruned int64
	prunedMS := l.reps(ledgerReps, func() float64 {
		mscopedb.ResetScanStats()
		d := l.rec.do("mscopedb.Select.Rows pruned", func() {
			_, qerr = tbl.Select().Between(readTimeCol, mid, mid.Add(time.Second)).Rows()
		})
		scanned, pruned = mscopedb.ScanStats()
		return ms(d)
	})
	if qerr != nil {
		return qerr
	}
	aggMS := l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("mscopedb.WindowAgg", func() {
			_, qerr = full.WindowAgg(readTimeCol, detectWindow, readValCol, mscopedb.AggMax)
		}))
	})
	if qerr != nil {
		return qerr
	}
	l.set("mscopedb.scan_full_ms", median(fullMS))
	l.set("mscopedb.scan_pruned_ms", median(prunedMS))
	l.set("mscopedb.segs_scanned_per_query", float64(scanned))
	l.set("mscopedb.segs_pruned_per_query", float64(pruned))
	l.set("mscopedb.windowagg_ms", median(aggMS))
	return nil
}

// ingestOnce is one transform.IngestDirWithOptions of corpus-bulk into an
// in-memory warehouse.
func (l *ledger) ingestOnce(name string, workers int, t *tally) float64 {
	work := filepath.Join(l.root, "ledger-work")
	defer os.RemoveAll(work)
	db := mscopedb.Open()
	var err error
	d := l.rec.do(name, func() {
		_, err = transform.IngestDirWithOptions(db, l.bulk.logDir, work, transform.DefaultPlan(),
			transform.Options{Workers: workers})
	})
	if err != nil {
		t.fail("ledger ingest: %v", err)
	}
	return ns(d)
}

// stageIngest times the whole batch ingest the layers above are parts of,
// serial and with one worker per CPU. What the serial ingest takes beyond
// its measured parts is the residual.
func (l *ledger) stageIngest(t *tally) error {
	serial := l.reps(ledgerHeavyReps, func() float64 {
		return l.ingestOnce("transform.IngestDirWithOptions workers=1", 1, t)
	})
	workers := runtime.GOMAXPROCS(0)
	parallel := l.reps(ledgerHeavyReps, func() float64 {
		return l.ingestOnce(fmt.Sprintf("transform.IngestDirWithOptions workers=%d", workers), workers, t)
	})
	rows := float64(l.rows)
	ingest := median(serial) / rows
	parts := l.vals["transform.read_ns_per_row"] + l.vals["parsers.ns_per_row"] +
		l.vals["xmlcsv.infer_ns_per_row"] + l.vals["xmlcsv.row_ns_per_row"] + l.vals["mscopedb.append_ns_per_row"]
	l.set("transform.ingest_ns_per_row", ingest)
	l.set("transform.residual_ns_per_row", ingest-parts)
	l.set("transform.residual_share", 100*(ingest-parts)/ingest)
	l.set("transform.workers_speedup_x", median(serial)/median(parallel))
	return nil
}

// traceOverheadPct prices the harness's own spans: the measured cost of
// recording one span, times the spans this run recorded, as a share of the
// time the run spent under spans. Timing a one-second call twice, traced
// and not, cannot resolve a cost this small; counting can.
func (l *ledger) traceOverheadPct() float64 {
	const calibrate = 20000
	scratch := newRecorder()
	start := time.Now()
	for i := 0; i < calibrate; i++ {
		scratch.do("calibrate", func() {})
	}
	perSpan := ns(time.Since(start)) / calibrate
	var traced float64
	for _, s := range l.rec.spans {
		if s.Parent == 0 {
			traced += float64(s.End - s.Start)
		}
	}
	if traced == 0 {
		return 0
	}
	return 100 * perSpan * float64(len(l.rec.spans)) / traced
}

// stageWire builds, encodes and decodes the streamed files' entries in
// batches of the agent's default size.
func (l *ledger) stageWire(t *tally) error {
	var buildNS, encodeNS, decodeNS, wireBytes float64
	var derr error
	allocs, _ := mallocsDuring(func() {
		for _, f := range l.files {
			if !f.streamed {
				continue
			}
			for lo := 0; lo < len(f.entries); lo += wireBatchRecords {
				chunk := f.entries[lo:min(lo+wireBatchRecords, len(f.entries))]
				var b wire.Batch
				var payload []byte
				var back wire.Batch
				buildNS += ns(l.rec.do("wire.AppendEntries", func() { b.AppendEntries(chunk) }))
				encodeNS += ns(l.rec.do("wire.EncodeBatch", func() { payload = wire.EncodeBatch(&b) }))
				decodeNS += ns(l.rec.do("wire.DecodeBatch", func() { back, derr = wire.DecodeBatch(payload) }))
				if derr != nil {
					return
				}
				wireBytes += float64(len(payload))
				if back.Records() != len(chunk) {
					t.fail("ledger wire: decoded %d of %d records", back.Records(), len(chunk))
				}
			}
		}
	})
	if derr != nil {
		return derr
	}
	rows := float64(l.srows)
	l.set("wire.build_ns_per_row", buildNS/rows)
	l.set("wire.encode_ns_per_row", encodeNS/rows)
	l.set("wire.decode_ns_per_row", decodeNS/rows)
	l.set("wire.allocs_per_row", allocs/rows)
	l.set("wire.bytes_per_row", wireBytes/rows)
	return nil
}

// stageStream times the tailer alone over the static streamed files, then
// the whole pipeline draining them into an in-memory warehouse. The
// residual is the drain less the tail, parse and append it contains; the
// pipeline overlaps those on separate goroutines, so with idle cores the
// residual can be negative.
func (l *ledger) stageStream(t *tally) error {
	var tailNS, parseNS, appendNS float64
	for _, f := range l.files {
		if !f.streamed {
			continue
		}
		parseNS += f.parseNS
		appendNS += f.appendNS
		tl := stream.NewTailer(f.path, 0)
		var perr error
		got := 0
		tailNS += ns(l.rec.do("stream.Tailer.Poll "+f.name, func() {
			_, perr = tl.Poll(func(b []byte) error { got += len(b); return nil })
		}))
		if perr != nil {
			return perr
		}
		t.check(got == len(f.data), "ledger tail: %s: tailed %d of %d bytes", f.name, got, len(f.data))
	}
	var derr error
	drains := l.reps(ledgerHeavyReps, func() float64 {
		db := mscopedb.Open()
		d := l.rec.do("stream.Pipeline drain", func() { _, derr = drainOnce(l.bulk.logDir, db) })
		l.bulk.ref.checkTables(t, "ledger drain", db, isStreamedTable)
		return ns(d)
	})
	if derr != nil {
		return derr
	}
	rows := float64(l.srows)
	l.set("stream.tail_ns_per_row", tailNS/rows)
	l.set("stream.drain_ns_per_row", median(drains)/rows)
	l.set("stream.residual_ns_per_row", (median(drains)-tailNS-parseNS-appendNS)/rows)
	return nil
}

// stageDist ships corpus-bulk through two agents and a collector into an
// in-memory warehouse and reads their counters. The hop is priced as the
// difference between this and the local drain of the same files.
func (l *ledger) stageDist(t *tally) error {
	var st *distStats
	var derr error
	var rows int
	dists := l.reps(ledgerHeavyReps, func() float64 {
		db := mscopedb.Open()
		d := l.rec.do("collector+agentd dist-ingest", func() { st, derr = distOnce(l.bulk.logDir, db) })
		l.bulk.ref.checkTables(t, "ledger dist", db, isStreamedTable)
		rows = dataRows(db)
		return ns(d)
	})
	if derr != nil {
		return derr
	}
	var sent, reconnects, dialErrs float64
	for _, a := range st.agents {
		sent += float64(a.BatchesSent)
		reconnects += float64(a.Reconnects)
		dialErrs += float64(a.DialErrors)
	}
	c := st.collector
	l.set("agentd.batches_sent", sent)
	l.set("agentd.reconnects", reconnects)
	l.set("agentd.dial_errors", dialErrs)
	l.set("collector.batches_in", float64(c.BatchesIn))
	l.set("collector.records_per_batch", float64(c.RecordsIn)/float64(max(c.BatchesIn, 1)))
	l.set("collector.acks_out", float64(c.AcksOut))
	l.set("collector.wire_rx_bytes_per_row", float64(c.WireRxBytes)/float64(max(rows, 1)))
	l.set("collector.hop_ns_per_row", median(dists)/float64(l.srows)-l.vals["stream.drain_ns_per_row"])
	return nil
}

// stageAnalyse times the read-side libraries the service and the verdict
// are built from, against the reopened warehouse.
func (l *ledger) stageAnalyse(t *tally) error {
	db, _, err := l.openWarehouse()
	if err != nil {
		return err
	}
	const parses = 100
	var st *mql.Statement
	var perr error
	parse := l.rec.do("mql.Parse x100", func() {
		for i := 0; i < parses && perr == nil; i++ {
			st, perr = mql.Parse(mqlQueries[0])
		}
	})
	if perr != nil {
		return perr
	}
	l.set("mql.parse_us", float64(parse.Microseconds())/parses)
	l.set("mql.exec_ms", median(l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("mql.Exec", func() { _, perr = mql.Exec(db, st) }))
	})))
	if perr != nil {
		return perr
	}

	tables := make([]string, len(core.Tiers))
	for i, tier := range core.Tiers {
		tables[i] = tier + "_event"
	}
	var traces map[string]*tracegraph.Trace
	var buildAllocs float64
	l.set("tracegraph.build_ms", median(l.reps(ledgerReps, func() float64 {
		var d time.Duration
		buildAllocs, _ = mallocsDuring(func() {
			d = l.rec.do("tracegraph.Build", func() { traces, perr = tracegraph.Build(db, tables) })
		})
		return ms(d)
	})))
	if perr != nil {
		return perr
	}
	l.set("tracegraph.build_allocs", buildAllocs)
	var slowest *tracegraph.Trace
	for _, tr := range traces {
		if slowest == nil || tr.ResponseTime() > slowest.ResponseTime() ||
			(tr.ResponseTime() == slowest.ResponseTime() && tr.ReqID < slowest.ReqID) {
			slowest = tr
		}
	}
	if slowest == nil {
		return fmt.Errorf("ledger: no trace in the warehouse")
	}
	l.set("tracegraph.flame_ms", median(l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("tracegraph.BuildFlame+WriteSVG", func() {
			perr = tracegraph.BuildFlame(slowest).WriteSVG(io.Discard)
		}))
	})))
	if perr != nil {
		return perr
	}

	var ev *core.Evidence
	l.set("core.evidence_ms", median(l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("core.BuildEvidence", func() { ev, _, perr = core.BuildEvidence(db, detectWindow) }))
	})))
	if perr != nil {
		return perr
	}
	l.set("core.classify_us_per_window", median(l.reps(ledgerReps, func() float64 {
		d := l.rec.do("core.ClassifyWindow", func() {
			for i, w := range l.bulk.ref.windows {
				got := core.ClassifyWindow(ev, w.Window)
				t.check(got.Kind == w.Kind && got.Node == w.Node,
					"ledger classify: window %d is %s@%s, reference %s@%s", i, got.Kind, got.Node, w.Kind, w.Node)
			}
		})
		return float64(d.Microseconds()) / float64(len(l.bulk.ref.windows))
	})))
	var diag *core.Diagnosis
	l.set("core.diagnose_ms", median(l.reps(ledgerReps, func() float64 {
		return ms(l.rec.do("core.Diagnose", func() { diag, perr = core.Diagnose(db, detectWindow) }))
	})))
	if perr != nil {
		return perr
	}
	l.bulk.ref.checkVerdict(t, "ledger diagnose", diag)
	return nil
}

// stageServe replays the head of the query-mix sequence (after one request
// of every kind, so none is missing) through the service's handler under
// spans, and prices the handler against the direct library call on the
// full-range window requests.
func (l *ledger) stageServe(t *tally) error {
	n := 120
	if l.quick {
		n = 30
	}
	rng := rand.New(rand.NewSource(1))
	mk, err := newRequestMaker(rng, l.bulk)
	if err != nil {
		return err
	}
	var reqs []request
	for _, m := range queryMix {
		reqs = append(reqs, mk(m.kind))
	}
	reqs = append(reqs, mixSequence(rng, mk, n)...)
	got, _, _, err := serveMix(l.bulk.whDir, reqs, 0, nil, l.rec.do)
	if err != nil {
		return err
	}
	if err := checkAnswers(t, l.bulk, got); err != nil {
		return err
	}
	byKind := make(map[string][]float64)
	for _, s := range got {
		byKind[s.req.Kind] = append(byKind[s.req.Kind], ms(s.dur))
	}
	for _, m := range queryMix {
		l.set("serve."+m.kind+"_ms_p50", median(byKind[m.kind]))
	}

	db, _, err := l.openWarehouse()
	if err != nil {
		return err
	}
	var overhead []float64
	for _, s := range got {
		if s.req.Kind != kWindowFull {
			continue
		}
		u, err := url.Parse(s.req.URL)
		if err != nil {
			return err
		}
		q := u.Query()
		fn, err := mscopedb.ParseAggFn(q.Get("fn"))
		if err != nil {
			return err
		}
		tbl, err := db.Table(q.Get("table"))
		if err != nil {
			return err
		}
		var derr error
		direct := l.rec.do("direct Select.Rows+WindowAgg", func() {
			var res *mscopedb.Result
			if res, derr = tbl.Select().Rows(); derr == nil {
				_, derr = res.WindowAgg(q.Get("time"), detectWindow, q.Get("value"), fn)
			}
		})
		if derr != nil {
			return derr
		}
		overhead = append(overhead, ms(s.dur-direct))
	}
	l.set("serve.overhead_ms_p50", median(overhead))
	return nil
}

// stagePaced is the paced live phase with Pipeline.Status sampled every
// tick: queue depth, watermark lag and backpressure while the logs grow at
// their own pace, then how long the pipeline needs to catch up with the
// last byte, and how much of the detection latency is not configured
// waiting.
func (l *ledger) stagePaced(t *tally, wall time.Duration) error {
	var depthMax float64
	var lagMS []float64
	sample := func(p *stream.Pipeline, done <-chan struct{}) {
		tick := time.NewTicker(pacedTick)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				st := p.Status()
				depthMax = max(depthMax, float64(st.Queued))
				if st.LowWatermarkUS > 0 {
					lagMS = append(lagMS, float64(st.LagUS)/1000)
				}
			}
		}
	}
	var res *pacedResult
	var err error
	l.rec.do("stream.Pipeline paced", func() { res, err = runPaced(l.live, l.root, wall, t, sample) })
	if err != nil {
		return err
	}
	speed := float64(l.live.spec.Sim) / float64(wall)
	configured := ms(stream.DefaultGrace+core.ClassifyPad+faults.DefaultSkewMax) / speed
	l.set("stream.backpressure_stalls", float64(res.stalls))
	l.set("stream.queue_depth_max", depthMax)
	l.set("stream.watermark_lag_ms_p99", percentile(lagMS, 99))
	l.set("stream.catchup_ms", ms(res.catchup))
	l.set("stream.detect_excess_ms_p50", median(res.latencyMS)-configured)
	l.set("stream.gen_late_ms_p99", percentile(res.lateMS, 99))
	return nil
}
