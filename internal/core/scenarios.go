package core

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/ntier"
)

// Tiers lists the testbed tiers front to back, as named in warehouse
// tables.
var Tiers = []string{"apache", "tomcat", "cjdbc", "mysql"}

// EventTables names the standard event tables, front tier first.
func EventTables() []string {
	tables := make([]string, len(Tiers))
	for i, t := range Tiers {
		tables[i] = t + "_event"
	}
	return tables
}

// DefaultWindow is the PIT window width every surface defaults to: batch
// diagnose, the live detector, the service and scenario verify.
const DefaultWindow = 50 * time.Millisecond

// ScenarioAccuracy reproduces the Figure 9 validation setup: the given
// workload (the paper uses 8000 concurrent users) with both the event
// monitors and the passive network tap enabled, no injected faults.
// duration scales the paper's 7-minute trial down to simulation budget.
func ScenarioAccuracy(logDir string, users int, duration time.Duration) ExperimentConfig {
	cfg := ntier.DefaultConfig()
	cfg.Users = users
	cfg.ThinkTime = 7 * time.Second // the RUBBoS standard think time
	cfg.Duration = duration
	cfg.Seed = 31
	return ExperimentConfig{
		Name:          fmt.Sprintf("accuracy-wl%d", users),
		Ntier:         cfg,
		EventMonitors: true,
		CaptureNet:    true,
		LogDir:        logDir,
	}
}

// OverheadPoint is one cell of the Figures 10/11 sweep: a workload level
// with monitors enabled or disabled.
type OverheadPoint struct {
	Workload int
	Enabled  bool

	Throughput float64
	MeanRT     time.Duration
	P99RT      time.Duration

	// Per-node whole-run percentages and volumes.
	IOWaitPct   map[string]float64
	CPUPct      map[string]float64
	DiskWriteKB map[string]float64
	// LogKB separates native from monitor-added log volume.
	BaseLogKB  map[string]float64
	ExtraLogKB map[string]float64
}

// MeasureOverheadSweep runs the monitors-on/off pairs across workloads
// (Figures 10 and 11). mkLogDir returns a fresh directory per trial name.
func MeasureOverheadSweep(workloads []int, duration time.Duration,
	mkLogDir func(name string) string) ([]OverheadPoint, error) {
	var out []OverheadPoint
	for _, wl := range workloads {
		for _, enabled := range []bool{false, true} {
			cfg := ntier.DefaultConfig()
			cfg.Users = wl
			cfg.ThinkTime = 7 * time.Second
			cfg.Duration = duration
			cfg.Seed = 41
			name := fmt.Sprintf("overhead-wl%d-on%v", wl, enabled)
			ec := ExperimentConfig{
				Name:          name,
				Ntier:         cfg,
				EventMonitors: enabled,
				LogDir:        mkLogDir(name),
			}
			res, err := RunExperiment(ec)
			if err != nil {
				return nil, err
			}
			pt := OverheadPoint{
				Workload:    wl,
				Enabled:     enabled,
				Throughput:  res.Stats.Throughput,
				MeanRT:      res.Stats.MeanRT,
				P99RT:       res.Stats.P99RT,
				IOWaitPct:   map[string]float64{},
				CPUPct:      map[string]float64{},
				DiskWriteKB: map[string]float64{},
				BaseLogKB:   map[string]float64{},
				ExtraLogKB:  map[string]float64{},
			}
			for _, s := range res.Sys.Servers() {
				// Whole-run shares of the node's CPU time: the Figure 10 metrics.
				snap := s.Node().Snap()
				cpuNS := float64(cfg.Duration.Nanoseconds()) * float64(s.Node().Config().Cores)
				pt.IOWaitPct[s.Name()] = 100 * snap.CPU.IOWait / cpuNS
				pt.CPUPct[s.Name()] = 100 * (snap.CPU.User + snap.CPU.System) / cpuNS
				pt.DiskWriteKB[s.Name()] = snap.DiskWriteKB
				base, extra := s.LogVolumeKB()
				pt.BaseLogKB[s.Name()] = base
				pt.ExtraLogKB[s.Name()] = extra
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
