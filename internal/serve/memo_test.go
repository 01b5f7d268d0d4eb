package serve

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
)

// spilledWarehouse ingests the disk-IO trial into a warehouse directory
// whose tables seal segments, and reopens it from disk: the snapshot
// `mscope serve --db` attaches. It returns the reopened warehouse and its
// directory.
func spilledWarehouse(t testing.TB) (*mscopedb.DB, string) {
	t.Helper()
	dir := t.TempDir()
	opts := mscopedb.StoreOptions{SealRows: 2048}
	db, err := mscopedb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.IngestDir(db, scenarioLogs(t, "dbio", 0), t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db, err = mscopedb.OpenDir(dir, opts); err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// recorded counts the self-telemetry spans of one pipeline stage.
func recorded(col *selfobs.Collector, pipeline, stage string) int {
	n := 0
	for _, r := range col.Snapshot() {
		if r.Kind == "span" && r.Pipeline == pipeline && r.Stage == stage {
			n++
		}
	}
	return n
}

// TestSnapshotProductsComputedOnce: a snapshot is diagnosed and ranked by
// the first request that needs it; the next answers the same bytes
// without reading the warehouse again.
func TestSnapshotProductsComputedOnce(t *testing.T) {
	db, _ := spilledWarehouse(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	diag := get(t, h, "/api/diagnosis", 200, nil).Body.Bytes()
	traces := get(t, h, "/api/traces?limit=50", 200, nil).Body.Bytes()

	col := selfobs.Enable("memo-test", time.Unix(0, 0))
	defer selfobs.Disable()
	before, _ := mscopedb.ScanStats()
	if again := get(t, h, "/api/diagnosis", 200, nil).Body.Bytes(); !bytes.Equal(again, diag) {
		t.Fatalf("second /api/diagnosis differs:\n%s\nfirst\n%s", again, diag)
	}
	if after, _ := mscopedb.ScanStats(); after != before {
		t.Errorf("second /api/diagnosis decoded %d segments", after-before)
	}
	if n := recorded(col, selfobs.PipeDiagnose, "evidence"); n != 0 {
		t.Errorf("second /api/diagnosis recorded %d diagnose/evidence spans", n)
	}
	if again := get(t, h, "/api/traces?limit=50", 200, nil).Body.Bytes(); !bytes.Equal(again, traces) {
		t.Fatalf("second /api/traces differs:\n%s\nfirst\n%s", again, traces)
	}
}

// TestSnapshotMemoSingleFlight: concurrent first requests diagnose the
// snapshot once between them, and all answer the same bytes.
func TestSnapshotMemoSingleFlight(t *testing.T) {
	db, _ := spilledWarehouse(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	col := selfobs.Enable("memo-test", time.Unix(0, 0))
	defer selfobs.Disable()
	start := make(chan struct{})
	bodies := make([][]byte, 16)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/diagnosis", nil))
			if rec.Code != 200 {
				t.Errorf("/api/diagnosis: %d: %s", rec.Code, rec.Body.String())
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	if n := recorded(col, selfobs.PipeDiagnose, "pit"); n != 1 {
		t.Errorf("16 concurrent first requests recorded %d diagnose/pit spans, want 1", n)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d answered differently:\n%s\nrequest 0\n%s", i+1, b, bodies[0])
		}
	}
}

// TestSnapshotMemoNeverCachesErrors: a product that failed to compute is
// computed again by the next request, and once the warehouse reads back
// the answer is what an unmemoized computation gives.
func TestSnapshotMemoNeverCachesErrors(t *testing.T) {
	db, dir := spilledWarehouse(t)
	ordered := slowestFirstOracle(t, db)
	d, err := core.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wantDiag := jsonBody(diagTimeline{Source: "batch", Entries: batchEntries(d)})
	wantTraces := make([]traceSummary, 0, 10)
	for _, tr := range ordered[:10] {
		wantTraces = append(wantTraces, traceSummary{ReqID: tr.ReqID, RTUS: tr.ResponseTime().Microseconds(),
			Spans: len(tr.Spans), Complete: tr.Complete(), Coverage: tr.Coverage()})
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*-apache_event.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no apache_event segment files (%v)", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(segs[0], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 2; i++ {
		get(t, h, "/api/diagnosis", 500, nil)
		get(t, h, "/api/traces?limit=10", 500, nil)
	}
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := get(t, h, "/api/diagnosis", 200, nil).Body.Bytes(); !bytes.Equal(got, wantDiag) {
		t.Fatalf("/api/diagnosis after the repair:\n%s\nwant\n%s", got, wantDiag)
	}
	if got := get(t, h, "/api/traces?limit=10", 200, nil).Body.Bytes(); !bytes.Equal(got, jsonBody(wantTraces)) {
		t.Fatalf("/api/traces after the repair:\n%s\nwant\n%s", got, jsonBody(wantTraces))
	}
}

// TestVerificationSurvivesWarmCaches: what a snapshot keeps per segment
// file (the request-ID index and the restart points of the columns a trace
// reads) never stands in for reading the file. With both warm, a flipped
// byte in the segment holding the request makes the same /api/trace a 500
// that names the file; once the byte is back it answers what it did.
func TestVerificationSurvivesWarmCaches(t *testing.T) {
	db, dir := spilledWarehouse(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	apache, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	// Row 2100 of 2048-row segments lies in the second one; seq numbers are
	// zero-padded, so the names sort in table order.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*-apache_event.seg"))
	if err != nil || len(segs) < 2 || apache.SealedRows() < 2*2048 {
		t.Fatalf("want 2 apache_event segments, have %d (%v)", len(segs), err)
	}
	sort.Strings(segs)
	path := "/api/trace/" + apache.Str(apache.ColIndex("reqid"), 2100)
	want := get(t, h, path, 200, nil).Body.Bytes()
	if !bytes.Equal(get(t, h, path, 200, nil).Body.Bytes(), want) {
		t.Fatal("a warm /api/trace answered other bytes than the cold one")
	}
	if bytes, _ := db.IndexStats(); bytes == 0 {
		t.Fatal("the trace left no index or restart points to keep")
	}
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/3] ^= 0x10
	if err := os.WriteFile(segs[1], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	body := get(t, h, path, 500, nil).Body.String()
	if name := filepath.Base(segs[1]); !strings.Contains(body, name) || !strings.Contains(body, "checksum mismatch") {
		t.Fatalf("500 body does not name %s: %s", name, body)
	}
	if err := os.WriteFile(segs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := get(t, h, path, 200, nil).Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("after the repair:\n%s\nwant\n%s", got, want)
	}
}

// TestWarmWindowQueriesReuseReadBuffers: a segment read takes a buffer the
// size of the file, and a window query over a spilled table hands its
// buffers back when it has answered, so the next query reads into them: a
// warm query allocates less than one segment file, on average.
func TestWarmWindowQueriesReuseReadBuffers(t *testing.T) {
	db, dir := spilledWarehouse(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*-apache_event.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no apache_event segment files (%v)", err)
	}
	smallest := int64(math.MaxInt64)
	for _, f := range segs {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		smallest = min(smallest, fi.Size())
	}
	var probe struct {
		Rows [][]string `json:"rows"`
	}
	get(t, h, "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms", 200, &probe)
	start, err := strconv.ParseInt(probe.Rows[0][0], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 20
	paths := make([]string, queries)
	for i := range paths { // one second each, across the trial
		from := start + int64(i%10)*1_000_000
		paths[i] = "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms" +
			"&from=" + strconv.FormatInt(from, 10) + "&to=" + strconv.FormatInt(from+1_000_000, 10)
	}
	get(t, h, paths[0], 200, nil) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range paths {
		get(t, h, p, 200, nil)
	}
	runtime.ReadMemStats(&after)
	if per := int64(after.TotalAlloc-before.TotalAlloc) / queries; per >= smallest {
		t.Fatalf("a warm window query allocates %d bytes; a segment file is %d", per, smallest)
	}
}

// TestWarmTraceReusesReadBuffers: a warm /api/trace reads each segment it
// hits into a buffer the store's free list kept, the smallest that fits,
// and the list keeps the largest buffers handed back. So when window
// queries over the table of the smallest segments come between the traces,
// as in a served mix, their buffers do not hold the slots while each
// trace's read of a larger table's segment makes a buffer of its own: a warm
// trace allocates less than one segment file, on average.
func TestWarmTraceReusesReadBuffers(t *testing.T) {
	db, dir := spilledWarehouse(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (%v)", err)
	}
	smallest, small := int64(math.MaxInt64), ""
	for _, f := range segs {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < smallest { // seg-<seq>-<table>.seg
			smallest, small = fi.Size(), strings.TrimSuffix(strings.SplitN(filepath.Base(f), "-", 3)[2], ".seg")
		}
	}
	tbl, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := tbl.Scan([]string{"reqid"}, func(ch *mscopedb.Chunk) error {
		ids = append(ids, ch.Strs(0)...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const traces = 10
	paths := make([]string, traces)
	for i := range paths { // requests spread over the sealed rows
		paths[i] = "/api/trace/" + ids[(2*i+1)*tbl.SealedRows()/(2*traces)]
	}
	window := "/api/window?table=" + small + "&time=ua&value=ud&fn=max&window=50ms"
	for _, p := range paths { // warm: every segment's lookup index is built
		get(t, h, p, 200, nil)
	}
	var before, after runtime.MemStats
	total := uint64(0)
	for _, p := range paths {
		get(t, h, window, 200, nil)
		runtime.ReadMemStats(&before)
		get(t, h, p, 200, nil)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	per := int64(total) / traces
	t.Logf("a warm trace allocates %d bytes; the smallest segment file, of %s, is %d", per, small, smallest)
	if per >= smallest {
		t.Fatalf("a warm trace allocates %d bytes; a segment file is %d", per, smallest)
	}
}
