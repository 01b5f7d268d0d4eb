package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// TestFiguresFailWithoutTables: Diagnose refuses a warehouse without the
// front tier's events, and the figures that need the resource plane refuse
// a diagnosis without one with clean errors, never panics.
func TestFiguresFailWithoutTables(t *testing.T) {
	if _, err := Diagnose(mscopedb.Open(), time.Millisecond); err == nil {
		t.Fatal("diagnose without tables accepted")
	}
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Resmon, cfg.Injectors = nil, nil // a clean trial, event monitors only
	cfg.Ntier.Users = 20
	cfg.Ntier.Duration = time.Second
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("a clean event-only trial: %v", err)
	}
	eventOnlyFigures(t, d)
}

// eventOnlyFigures checks a diagnosis without a resource plane: Figures 2
// and 6 render it, 4, 7 and 8 refuse it.
func eventOnlyFigures(t *testing.T, d *Diagnosis) {
	t.Helper()
	var buf bytes.Buffer
	if err := Fig2PointInTime(d).Render(&buf, 40, 6); err != nil {
		t.Fatalf("fig2 on an event-only diagnosis: %v", err)
	}
	if err := Fig6QueueLengths(d).Render(&buf, 40, 6); err != nil {
		t.Fatalf("fig6 on an event-only diagnosis: %v", err)
	}
	if _, _, err := Fig4DiskUtil(d); err == nil {
		t.Fatal("fig4 without collectl tables accepted")
	}
	if _, _, err := Fig7Correlation(d); err == nil {
		t.Fatal("fig7 without collectl tables accepted")
	}
	if _, _, err := Fig8DirtyPage(d); err == nil {
		t.Fatal("fig8 without collectl tables accepted")
	}
}

// TestDiagnoseWithoutResourceMonitors: an event-only warehouse (no
// collectl tables) with a window to classify fails with a useful error —
// diagnosis needs the resource plane, which is the paper's whole point —
// yet hands back what the event tables give, for the figures that need
// nothing more.
func TestDiagnoseWithoutResourceMonitors(t *testing.T) {
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Resmon = nil // event monitors only
	cfg.Ntier.Users = 50
	cfg.Ntier.Duration = 8 * time.Second
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(db, 50*time.Millisecond)
	if !errors.Is(err, ErrNoResources) {
		t.Fatalf("diagnose without resource tables: %v, want ErrNoResources", err)
	}
	if len(d.Windows) == 0 || len(d.Windows[0].Pushback.Grew) == 0 || d.Windows[0].Kind != CauseUnknown {
		t.Fatalf("event-only windows %+v, want them with their pushback and unclassified", d.Windows)
	}
	eventOnlyFigures(t, d)
}

// TestOverheadSweepValidation: malformed sweeps are rejected.
func TestOverheadSweepValidation(t *testing.T) {
	if _, _, err := Fig10Overhead(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	bad := []OverheadPoint{{Workload: 1000, Enabled: true}}
	if _, _, err := Fig10Overhead(bad); err == nil {
		t.Fatal("unpaired sweep accepted")
	}
	mismatched := []OverheadPoint{
		{Workload: 1000, Enabled: true},
		{Workload: 2000, Enabled: false},
	}
	if _, _, err := Fig11ThroughputRT(mismatched); err == nil {
		t.Fatal("mismatched workloads accepted")
	}
}

// TestFig9WithoutCapture: reconstructing from an empty capture fails
// cleanly inside MatchTransactions/queue derivation rather than panicking.
func TestFig9EmptyCapture(t *testing.T) {
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 20
	cfg.Ntier.Duration = time.Second
	cfg.Injectors = nil
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	figs, stats, err := Fig9Accuracy(db, nil, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// No tap messages → SysViz series empty → zero overlapping windows.
	if len(figs) != 4 {
		t.Fatalf("%d figures", len(figs))
	}
	for tier, st := range stats.Tiers {
		if st.Windows != 0 {
			t.Fatalf("%s: %d windows from empty capture", tier, st.Windows)
		}
	}
}
