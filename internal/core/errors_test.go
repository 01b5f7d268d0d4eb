package core

import (
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// TestFiguresFailWithoutTables: figure builders against a warehouse
// missing the needed tables surface clean errors, never panics.
func TestFiguresFailWithoutTables(t *testing.T) {
	db := mscopedb.Open()
	if _, _, err := Fig2PointInTime(db, time.Millisecond); err == nil {
		t.Fatal("fig2 without apache_event accepted")
	}
	if _, _, err := Fig4DiskUtil(db, time.Millisecond); err == nil {
		t.Fatal("fig4 without collectl tables accepted")
	}
	if _, _, err := Fig6QueueLengths(db, time.Millisecond); err == nil {
		t.Fatal("fig6 without event tables accepted")
	}
	if _, _, err := Fig7Correlation(db, time.Millisecond); err == nil {
		t.Fatal("fig7 without tables accepted")
	}
	if _, _, err := Fig8DirtyPage(db, time.Millisecond); err == nil {
		t.Fatal("fig8 without tables accepted")
	}
	if _, err := Diagnose(db, time.Millisecond); err == nil {
		t.Fatal("diagnose without tables accepted")
	}
}

// TestDiagnoseWithoutResourceMonitors: an event-only warehouse (no
// collectl tables) fails with a useful error — diagnosis needs the
// resource plane, which is the paper's whole point.
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
	if _, err := Diagnose(db, 50*time.Millisecond); err == nil {
		t.Fatal("diagnose without resource tables accepted")
	}
	// But the event-only figures still work.
	if _, _, err := Fig2PointInTime(db, 50*time.Millisecond); err != nil {
		t.Fatalf("fig2 on event-only warehouse: %v", err)
	}
	if _, _, err := Fig6QueueLengths(db, 50*time.Millisecond); err != nil {
		t.Fatalf("fig6 on event-only warehouse: %v", err)
	}
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
