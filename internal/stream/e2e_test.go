package stream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/transform"
)

// The e2e tests share one staged Section V-A (disk-IO) trial and one batch
// baseline built from it; both are torn down in TestMain.
var (
	stageOnce sync.Once
	stageDir  string
	stageErr  error

	batchOnce sync.Once
	batchErr  error
	batchDB   *mscopedb.DB
	batchDiag *core.Diagnosis
	batchWork string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if stageDir != "" {
		os.RemoveAll(stageDir)
	}
	if batchWork != "" {
		os.RemoveAll(batchWork)
	}
	os.Exit(code)
}

// stagedDBIO runs the simulator's disk-IO scenario once and returns the
// directory holding its monitor logs.
func stagedDBIO(t testing.TB) string {
	t.Helper()
	stageOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mscope-stream-dbio-")
		if err != nil {
			stageErr = err
			return
		}
		stageDir = dir
		_, stageErr = core.RunExperiment(core.ScenarioDBIO(dir))
	})
	if stageErr != nil {
		t.Fatalf("stage dbio trial: %v", stageErr)
	}
	return stageDir
}

// batchBaseline ingests the staged trial through the batch workflow and
// diagnoses it — the ground truth the live pipeline must reproduce.
func batchBaseline(t *testing.T) (*mscopedb.DB, *core.Diagnosis) {
	t.Helper()
	stage := stagedDBIO(t)
	batchOnce.Do(func() {
		work, err := os.MkdirTemp("", "mscope-stream-batch-")
		if err != nil {
			batchErr = err
			return
		}
		batchWork = work
		db := mscopedb.Open()
		if _, err := transform.IngestDir(db, stage, work, transform.DefaultPlan()); err != nil {
			batchErr = err
			return
		}
		diag, err := core.Diagnose(db, 50*time.Millisecond)
		if err != nil {
			batchErr = err
			return
		}
		batchDB, batchDiag = db, diag
	})
	if batchErr != nil {
		t.Fatalf("batch baseline: %v", batchErr)
	}
	return batchDB, batchDiag
}

// compareRows asserts every streamed table holds exactly the rows the batch
// ingest of the same logs produced — nothing lost, nothing duplicated, same
// schema, same cells.
func compareRows(t *testing.T, live, batch *mscopedb.DB) {
	t.Helper()
	compared := 0
	for _, name := range live.TableNames() {
		if name == "mscope_ingests" {
			continue
		}
		lt, err := live.Table(name)
		if err != nil {
			t.Fatalf("live table %s: %v", name, err)
		}
		bt, err := batch.Table(name)
		if err != nil {
			t.Errorf("table %s streamed live but absent from the batch warehouse", name)
			continue
		}
		if lt.Rows() != bt.Rows() {
			t.Errorf("table %s: live %d rows, batch %d", name, lt.Rows(), bt.Rows())
			continue
		}
		sameTable(t, lt, bt)
		compared++
	}
	if compared < 8 {
		t.Errorf("only %d streamed tables compared; want the 4 event logs and 4 collectl CSVs", compared)
	}
}

// TestLiveMatchesBatchDBIO is the headline e2e: replay the Section V-A
// trial as a live producer, and require (1) an alert raised before the
// producer finished writing, and (2) the same verdict and warehouse rows
// the batch workflow reaches offline.
func TestLiveMatchesBatchDBIO(t *testing.T) {
	stage := stagedDBIO(t)
	liveDir := filepath.Join(t.TempDir(), "live")
	prod, err := NewProducer(ProducerConfig{
		SrcDir:   stage,
		DstDir:   liveDir,
		Duration: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(Config{LogDir: liveDir})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := prod.Run(); err != nil {
		t.Fatal(err)
	}
	producerDone := time.Now()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}

	alerts := pipe.Alerts()
	if len(alerts) == 0 {
		t.Fatal("live pipeline raised no alert for the disk-IO trial")
	}
	first := alerts[0]
	if !first.Raised.Before(producerDone) {
		t.Errorf("first alert raised at %v, after the producer finished at %v — online detection must beat the experiment's end",
			first.Raised, producerDone)
	}
	// The wait follows the flush's residence, not the 2 s ceiling or the
	// pad: the alert is out within half the ceiling past its own slice.
	if limit := first.SliceUS + (DefaultGrace / 2).Microseconds(); first.SliceUS >= core.ClassifyPad.Microseconds() || first.DelayUS <= 0 || first.DelayUS >= limit {
		t.Errorf("first alert fired %s; want it online and under %dus after its window", first.Waited(), limit)
	}

	_, diag := batchBaseline(t)
	if len(diag.Windows) == 0 {
		t.Fatal("batch diagnose found no VLRT window")
	}
	want := diag.Windows[0]
	got := first.Diagnosis
	if got.Kind != want.Kind || got.Node != want.Node {
		t.Errorf("live verdict %q at %q; batch concluded %q at %q",
			got.Kind, got.Node, want.Kind, want.Node)
	}
	if got.Window.StartMicros > want.Window.EndMicros || want.Window.StartMicros > got.Window.EndMicros {
		t.Errorf("live window [%d,%d] does not overlap batch window [%d,%d]",
			got.Window.StartMicros, got.Window.EndMicros,
			want.Window.StartMicros, want.Window.EndMicros)
	}

	bdb, _ := batchBaseline(t)
	compareRows(t, pipe.DB(), bdb)
}

// recordBoundary cuts data near approx at a boundary a restarted parse can
// resume from: for the slow log that is a record ("# Time:") boundary — its
// multi-line groups have no meaning cut in half — for everything else a
// line boundary.
func recordBoundary(b transform.Binding, data []byte, approx int) int {
	if approx >= len(data) {
		approx = len(data) - 1
	}
	if b.Parser == "mysql-slow" {
		if i := bytes.LastIndex(data[:approx], []byte("\n# Time:")); i >= 0 {
			return i + 1
		}
	}
	if i := bytes.LastIndexByte(data[:approx], '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// TestLiveRestartResume kills the pipeline mid-trial and restarts it over
// the same warehouse: phase 1 sees a prefix of every log, phase 2 the full
// files. The ledger checkpoints must splice the two sessions into exactly
// the batch result, and a third run over unchanged files must append zero
// rows.
func TestLiveRestartResume(t *testing.T) {
	stage := stagedDBIO(t)
	bdb, _ := batchBaseline(t)
	plan := transform.DefaultPlan()
	dir := t.TempDir()

	entries, err := os.ReadDir(stage)
	if err != nil {
		t.Fatal(err)
	}
	full := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || !Streamable(plan, e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(stage, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		full[e.Name()] = data
		b, _ := plan.Find(e.Name())
		cut := recordBoundary(b, data, 55*len(data)/100)
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(full) == 0 {
		t.Fatal("nothing streamable staged")
	}

	db := mscopedb.Open()
	// With static files, Start+Stop is a complete deterministic session:
	// the shutdown drain reads every source to EOF before the loader exits.
	runSession := func() int64 {
		pipe, err := New(Config{LogDir: dir, DB: db})
		if err != nil {
			t.Fatal(err)
		}
		pipe.Start()
		if err := pipe.Stop(); err != nil {
			t.Fatal(err)
		}
		return pipe.Status().Rows
	}

	phase1 := runSession()
	if phase1 == 0 {
		t.Fatal("phase 1 loaded nothing")
	}
	for name, data := range full {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	phase2 := runSession()
	if phase2 == 0 {
		t.Fatal("phase 2 appended nothing after restart")
	}
	compareRows(t, db, bdb)

	if extra := runSession(); extra != 0 {
		t.Fatalf("restart over unchanged files appended %d rows; ledger resume must be idempotent", extra)
	}
}

// TestProducerRefusesOutOfRange: a ChaosRate outside [0, 1] or a RotateAt
// outside [0, 1), NaN included, is an error naming the field, returned
// before the replay directory exists.
func TestProducerRefusesOutOfRange(t *testing.T) {
	src := t.TempDir()
	for _, tc := range []struct {
		field string
		cfg   ProducerConfig
	}{
		{"ChaosRate", ProducerConfig{ChaosRate: math.NaN()}}, {"ChaosRate", ProducerConfig{ChaosRate: -0.1}},
		{"ChaosRate", ProducerConfig{ChaosRate: 1.5}},
		{"RotateAt", ProducerConfig{RotateAt: math.NaN()}}, {"RotateAt", ProducerConfig{RotateAt: -0.5}},
		{"RotateAt", ProducerConfig{RotateAt: 1}}, {"RotateAt", ProducerConfig{RotateAt: 2}},
	} {
		dst := filepath.Join(t.TempDir(), "live")
		tc.cfg.SrcDir, tc.cfg.DstDir, tc.cfg.Duration = src, dst, time.Second
		_, err := NewProducer(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "ProducerConfig."+tc.field) {
			t.Errorf("%s: err = %v, want one naming ProducerConfig.%s", tc.field, err, tc.field)
		}
		if _, err := os.Stat(dst); !os.IsNotExist(err) {
			t.Errorf("%s: replay directory written before the config was checked", tc.field)
		}
	}
}

// TestPipelineChaosQuarantine streams a corrupted replay: malformed regions
// must be quarantined, a source over the error budget rejected, and the
// disk-IO verdict still reached from the surviving evidence.
func TestPipelineChaosQuarantine(t *testing.T) {
	stage := stagedDBIO(t)
	liveDir := filepath.Join(t.TempDir(), "live")
	prod, err := NewProducer(ProducerConfig{
		SrcDir:    stage,
		DstDir:    liveDir,
		Duration:  1200 * time.Millisecond,
		ChaosRate: 0.01,
		ChaosSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prod.ChaosReport == nil {
		t.Fatal("chaos replay produced no corruption report")
	}
	pipe, err := New(Config{LogDir: liveDir})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := prod.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}

	st := pipe.Status()
	if st.Quarantined == 0 {
		t.Error("chaos run quarantined nothing")
	}
	rejected := false
	for _, s := range st.Sources {
		if s.State == stateRejected {
			rejected = true
		}
	}
	if !rejected {
		t.Error("no source breached the error budget; the slow log's multi-line records should")
	}

	found := false
	for _, a := range pipe.Alerts() {
		if a.Diagnosis.Kind == core.CauseDiskIO && a.Diagnosis.Node == "mysql" {
			found = true
		}
	}
	if !found {
		t.Errorf("no disk-io@mysql verdict from the degraded stream; got %d alerts", len(pipe.Alerts()))
	}
}

// TestConfigErrorBudgetRange: New refuses a budget outside [0, 1] by
// value. A negative one used to reject a source on its first quarantined
// record past the sample floor; NaN and one above 1 never rejected.
func TestConfigErrorBudgetRange(t *testing.T) {
	for _, tc := range []struct {
		budget float64
		bad    string
	}{
		{0, ""},
		{0.05, ""},
		{1, ""},
		{-0.1, "-0.1"},
		{1.5, "1.5"},
		{math.NaN(), "NaN"},
	} {
		p, err := New(Config{LogDir: t.TempDir(), ErrorBudget: tc.budget})
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("budget %v: %v", tc.budget, err)
		case tc.bad == "" && tc.budget == 0 && p.cfg.ErrorBudget != transform.DefaultErrorBudget:
			t.Errorf("budget 0 became %v, want the default %v", p.cfg.ErrorBudget, transform.DefaultErrorBudget)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "error budget "+tc.bad)):
			t.Errorf("budget %v: err = %v, want one naming %s", tc.budget, err, tc.bad)
		}
	}
}
