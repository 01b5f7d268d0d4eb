package core

import (
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/bottleneck"
	"github.com/gt-elba/milliscope/internal/des"
)

// TestSoakLongTrial runs a minute-scale trial with recurring faults of
// mixed kinds and checks the whole stack stays consistent: no leaked
// inflight requests, warehouse conservation holds, and every episode is
// detected. Skipped in -short mode.
func TestSoakLongTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Name = "soak"
	cfg.Ntier.Users = 200
	cfg.Ntier.ThinkTime = 400 * time.Millisecond
	cfg.Ntier.Duration = 45 * time.Second
	cfg.Injectors = []bottleneck.Injector{
		bottleneck.PeriodicDBLogFlush{Start: des.Time(8 * time.Second),
			Period: 12 * time.Second, Duration: 300 * time.Millisecond, Count: 3},
		InjectorSpec{Kind: "jvm-gc", Node: "tomcat", At: Duration(14 * time.Second),
			Pause: Duration(250 * time.Millisecond)},
	}
	res, db := runScenario(t, cfg)

	// Everything drained.
	for _, s := range res.Sys.Servers() {
		if s.Inflight() != 0 {
			t.Fatalf("%s leaked %d inflight requests", s.Name(), s.Inflight())
		}
	}
	if uint64(len(res.Driver.Completed)) != res.Driver.Issued() {
		t.Fatalf("completed %d of %d issued", len(res.Driver.Completed), res.Driver.Issued())
	}

	// Monitor record conservation over ~hundreds of thousands of rows.
	consistency, err := ValidateWarehouse(db)
	if err != nil {
		t.Fatal(err)
	}
	if !consistency.OK() {
		t.Fatalf("soak warehouse inconsistent: %v", consistency.Problems)
	}

	// All four injected episodes produce diagnosed windows with the right
	// causes: three disk-io plus one cpu-saturation.
	diag, err := Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Windows) < 4 {
		t.Fatalf("%d VLRT windows for 4 injected episodes", len(diag.Windows))
	}
	disk, cpu := 0, 0
	for _, wd := range diag.Windows {
		switch wd.Kind {
		case CauseDiskIO:
			disk++
		case CauseCPU:
			cpu++
		}
	}
	if disk < 3 || cpu < 1 {
		t.Fatalf("diagnosed %d disk-io and %d cpu episodes, want ≥3 and ≥1", disk, cpu)
	}
}
