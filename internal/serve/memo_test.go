package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
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
func spilledWarehouse(t *testing.T) (*mscopedb.DB, string) {
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
