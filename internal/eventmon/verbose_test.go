package eventmon

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/ntier"
)

// runWithConfig runs a short trial with a specific monitor config.
func runWithConfig(t *testing.T, cfg Config) (*ntier.System, string) {
	t.Helper()
	ncfg := ntier.DefaultConfig()
	ncfg.Users = 30
	ncfg.Duration = time.Second
	ncfg.ThinkTime = 250 * time.Millisecond
	ncfg.Seed = 13
	sys := ntier.New(ncfg)
	dir := t.TempDir()
	set, err := AttachWithConfig(sys, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ntier.Run(sys)
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	return sys, dir
}

func TestVerbosePhaseDetailWritesExtraRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhaseDetail = 3
	sys, dir := runWithConfig(t, cfg)
	data, err := os.ReadFile(filepath.Join(dir, tomcatLogName))
	if err != nil {
		t.Fatal(err)
	}
	content := string(data)
	phases := strings.Count(content, "# PHASE")
	visits := int(sys.App.Visits())
	if phases != 3*visits {
		t.Fatalf("%d phase records for %d visits, want %d", phases, visits, 3*visits)
	}
	// Phase records carry the request ID for correlation.
	if !strings.Contains(content, "# PHASE 0 id=req-") {
		t.Fatal("phase records lack request IDs")
	}
}

func TestVerboseModeInflatesLogVolume(t *testing.T) {
	minimal, _ := runWithConfig(t, DefaultConfig())
	verbose := DefaultConfig()
	verbose.PhaseDetail = 6
	verboseSys, _ := runWithConfig(t, verbose)

	_, minExtra := minimal.App.LogVolumeKB()
	_, verbExtra := verboseSys.App.LogVolumeKB()
	ratio := verbExtra / minExtra
	if ratio < 2 {
		t.Fatalf("verbose/minimal volume ratio %.2f, want >2", ratio)
	}
}

func TestCustomOverheadCharged(t *testing.T) {
	heavy := DefaultConfig()
	heavy.Apache.CPUPerRecord = 2 * time.Millisecond
	sys, _ := runWithConfig(t, heavy)
	snap := sys.Web.Node().Snap()
	// ~30 users / 250ms think * 1s ≈ 100+ visits * 2ms = ≥200ms system CPU.
	if time.Duration(snap.CPU.System) < 100*time.Millisecond {
		t.Fatalf("heavy per-record CPU not charged: system=%v",
			time.Duration(snap.CPU.System))
	}
}
