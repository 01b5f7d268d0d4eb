package mscopedb

// Benchmarks for the on-disk segment store: what a durable warehouse
// costs (encode + spill throughput, bytes per row vs the legacy gob
// image) and what zone-map pruning buys (a 1-second window query over a
// multi-segment corpus against a scan that decodes every segment).
// bench/ gates the same quantities end to end: stored_bytes_per_row on every
// workload, and the mscopedb.* per-layer metrics (bench/README.md).

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchEventCols mirrors the shape of an ingested event table: a
// timestamp, a high-cardinality request ID (stored raw), a
// low-cardinality tier name (dictionary-encoded), and two numeric
// columns.
func benchEventCols() []Column {
	return []Column{
		{Name: "ts", Type: TTime},
		{Name: "req", Type: TString},
		{Name: "tier", Type: TString},
		{Name: "rt_us", Type: TInt},
		{Name: "util", Type: TFloat},
	}
}

var benchTiers = []string{"apache", "tomcat", "cjdbc", "mysql"}

// fillBenchEvents appends n synthetic event rows, 1ms apart.
func fillBenchEvents(b *testing.B, tbl *Table, n int) {
	b.Helper()
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		err := tbl.Append(
			base.Add(time.Duration(i)*time.Millisecond),
			fmt.Sprintf("req-%08d", i),
			benchTiers[i%len(benchTiers)],
			int64(900+i%5000),
			float64(i%100)/100,
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// segmentBytes sums the on-disk size of the store's committed segment
// files (seg-*.seg), excluding the manifest and tail snapshots — the
// per-row encoding cost (bench/'s mscopedb.disk_bytes_per_row).
func segmentBytes(b *testing.B, dir string) int64 {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "seg-") || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// BenchmarkSegmentSpill measures the durable ingest path: append rows
// into a spill-enabled warehouse and checkpoint, timing the whole
// encode+fsync pipeline. It reports the on-disk footprint per row of the
// dictionary+delta segment encoding.
func BenchmarkSegmentSpill(b *testing.B) {
	const rows = 16384
	const sealRows = 1024
	var segB int64
	var rowsLoaded int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "mscope-bench-spill-")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		db, err := OpenDir(dir, StoreOptions{SealRows: sealRows})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := db.Create("bench_event", benchEventCols())
		if err != nil {
			b.Fatal(err)
		}
		fillBenchEvents(b, tbl, rows)
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		segB = segmentBytes(b, dir)
		rowsLoaded = tbl.Rows()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	if rowsLoaded != rows || segB == 0 {
		b.Fatalf("spill produced %d rows, %d segment bytes", rowsLoaded, segB)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(segB)/float64(rows), "disk_B/row")
}

// BenchmarkSpilledWindowQuery measures what zone maps buy: a 1-second
// Between window over a corpus sealed into >=10 segments, against a
// whole-span scan that must decode every segment. The window start
// cycles across the span each iteration so the 2-entry decode cache
// cannot serve the pruned query for free — every op pays a real decode
// of the segments it could not prune.
func BenchmarkSpilledWindowQuery(b *testing.B) {
	const rows = 24576 // 24.5s of 1ms-apart rows
	const sealRows = 2048
	dir := b.TempDir()
	db, err := OpenDir(dir, StoreOptions{SealRows: sealRows})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Create("bench_event", benchEventCols())
	if err != nil {
		b.Fatal(err)
	}
	fillBenchEvents(b, tbl, rows)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	segs := tbl.Segments()
	if segs < 10 {
		b.Fatalf("corpus sealed into %d segments, want >= 10", segs)
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	span := rows * int(time.Millisecond) // corpus duration in ns

	// Reference: the same query shape with a window covering the whole
	// span — zone maps prune nothing, every segment decodes.
	fullStart := time.Now()
	const fullIters = 3
	for i := 0; i < fullIters; i++ {
		res, err := tbl.Select().Between("ts", base, base.Add(time.Duration(span))).Rows()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != rows {
			b.Fatalf("full scan saw %d rows, want %d", res.Len(), rows)
		}
	}
	fullNS := float64(time.Since(fullStart).Nanoseconds()) / fullIters

	ResetScanStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Slide the 1s window across the sealed span (staying clear of the
		// in-memory tail) so successive ops hit different segments.
		off := time.Duration((i*3001)%(20*1000)) * time.Millisecond
		res, err := tbl.Select().Between("ts", base.Add(off), base.Add(off+time.Second)).Rows()
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() < 1000 {
			b.Fatalf("window query saw %d rows", res.Len())
		}
	}
	b.StopTimer()
	scanned, pruned := ScanStats()
	b.ReportMetric(float64(segs), "segments")
	b.ReportMetric(float64(scanned)/float64(b.N), "segs_scanned/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "segs_pruned/op")
	b.ReportMetric(fullNS/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "speedup_x")
}

// BenchmarkColumnDecode measures one segment image's column decode, 8192
// rows of a committed file: the timestamp (a delta block), the request ID (a
// raw string block) and the tier (a dictionary block), each decoded whole
// and at 64 rows spread over the segment, each of those from its restart
// point (cached, as for any committed file after its first read).
func BenchmarkColumnDecode(b *testing.B) {
	const rows = 8192
	db, err := OpenDir(b.TempDir(), StoreOptions{SealRows: rows})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Create("bench_event", benchEventCols())
	if err != nil {
		b.Fatal(err)
	}
	fillBenchEvents(b, tbl, rows)
	if tbl.Segments() != 1 {
		b.Fatalf("%d segments, want 1", tbl.Segments())
	}
	img, err := db.store.openSegment(tbl.seal.segs[0].meta, tbl.name, tbl.cols)
	if err != nil {
		b.Fatal(err)
	}
	defer img.release()
	var spread []int32
	for r := 37; r < rows; r += rows / 64 {
		spread = append(spread, int32(r))
	}
	for _, c := range []struct {
		name string
		ci   int
	}{{"delta", 0}, {"string", 1}, {"dict", 2}} {
		for _, w := range []struct {
			name string
			want []int32
		}{{"full", nil}, {"restart", spread}} {
			b.Run(c.name+"/"+w.name, func(b *testing.B) {
				if _, err := img.column(c.ci, w.want); err != nil { // builds the restart points
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := img.column(c.ci, w.want); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
