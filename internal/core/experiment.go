// Package core orchestrates milliScope end to end: it assembles the
// simulated testbed, deploys event and resource mScopeMonitors, runs a
// trial, pushes the produced logs through mScopeDataTransformer into
// mScopeDB, and derives the paper's figures from the warehouse.
package core

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/bottleneck"
	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/eventmon"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/netcap"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/resmon"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

// ExperimentConfig describes one monitored trial.
type ExperimentConfig struct {
	// Name labels the experiment in the warehouse metadata.
	Name string
	// Ntier is the testbed and workload configuration.
	Ntier ntier.Config
	// EventMonitors attaches the event mScopeMonitors when true.
	EventMonitors bool
	// EventConfig tunes monitor overheads (zero value → defaults).
	EventConfig *eventmon.Config
	// Resmon deploys resource monitors; nil disables them.
	Resmon *resmon.Config
	// CaptureNet installs the passive network tap (SysViz input).
	CaptureNet bool
	// Injectors arm very short bottlenecks before the run.
	Injectors []bottleneck.Injector
	// LogDir receives monitor log files. Required when any monitor or the
	// tap is enabled.
	LogDir string
	// Warmup is excluded from client statistics (default 10% of duration).
	Warmup time.Duration
}

// ExperimentResult holds a completed trial.
type ExperimentResult struct {
	Config  ExperimentConfig
	Sys     *ntier.System
	Driver  *ntier.Driver
	Capture *netcap.Capture
	Stats   ntier.RunStats
	// EventLogs maps tier name to its event-monitor log path.
	EventLogs map[string]string
	// ResmonLogs maps "<node>/<kind>" to log path.
	ResmonLogs map[string]string
}

// RunExperiment executes one trial to completion (all monitors closed,
// all requests drained).
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: experiment without a name")
	}
	needsDir := cfg.EventMonitors || cfg.Resmon != nil
	if needsDir && cfg.LogDir == "" {
		return nil, fmt.Errorf("core: experiment %s: monitors enabled but no log dir", cfg.Name)
	}
	sys := ntier.New(cfg.Ntier)

	res := &ExperimentResult{Config: cfg, Sys: sys}
	var evSet *eventmon.Set
	var err error
	if cfg.EventMonitors {
		evCfg := eventmon.DefaultConfig()
		if cfg.EventConfig != nil {
			evCfg = *cfg.EventConfig
		}
		evSet, err = eventmon.AttachWithConfig(sys, cfg.LogDir, evCfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
		}
		res.EventLogs = evSet.Paths
	}
	var rmSet *resmon.Set
	if cfg.Resmon != nil {
		rmSet, err = resmon.Start(sys, cfg.LogDir, *cfg.Resmon, des.Time(cfg.Ntier.Duration))
		if err != nil {
			if evSet != nil {
				_ = evSet.Close()
			}
			return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
		}
		res.ResmonLogs = rmSet.Paths
	}
	if cfg.CaptureNet {
		res.Capture = netcap.New()
		sys.SetCapture(res.Capture)
	}
	for _, in := range cfg.Injectors {
		in.Inject(sys)
	}

	res.Driver = ntier.Run(sys)

	if evSet != nil {
		if err := evSet.Close(); err != nil {
			return nil, fmt.Errorf("core: %s: close event monitors: %w", cfg.Name, err)
		}
	}
	if rmSet != nil {
		if err := rmSet.Close(); err != nil {
			return nil, fmt.Errorf("core: %s: close resource monitors: %w", cfg.Name, err)
		}
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = cfg.Ntier.Duration / 10
	}
	res.Stats = res.Driver.Stats(warmup)
	return res, nil
}

// Ingest pushes the experiment's log directory through the transformation
// pipeline into a fresh warehouse and records experiment metadata in the
// static tables.
func (r *ExperimentResult) Ingest(workDir string) (*mscopedb.DB, transform.Report, error) {
	db := mscopedb.Open()
	rep, err := transform.IngestDir(db, r.Config.LogDir, workDir, transform.DefaultPlan())
	if err != nil {
		return nil, rep, fmt.Errorf("core: ingest %s: %w", r.Config.Name, err)
	}
	id, err := db.RecordExperiment(r.Config.Name, simtime.Epoch,
		r.Config.Ntier.Seed, r.Config.Ntier.Users, r.Config.Ntier.Duration,
		r.Config.Ntier.Mix.String())
	if err != nil {
		return nil, rep, err
	}
	for _, s := range r.Sys.Servers() {
		if err := db.RecordNode(id, s.Name(), s.Kind().String(),
			s.Node().Config().Cores, s.Spec().Workers); err != nil {
			return nil, rep, err
		}
	}
	for tier, path := range r.EventLogs {
		if err := db.RecordMonitor(id, tier, "event", path); err != nil {
			return nil, rep, err
		}
	}
	for key, path := range r.ResmonLogs {
		if err := db.RecordMonitor(id, key, "resource", path); err != nil {
			return nil, rep, err
		}
	}
	return db, rep, nil
}
