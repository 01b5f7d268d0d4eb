// Package milliscope is the public API of the milliScope reproduction: a
// millisecond-granularity, software-based resource and event monitoring
// framework for n-tier web services (Lai, Kimball, Zhu, Wang, Pu —
// ICDCS 2017), together with the simulated RUBBoS testbed the evaluation
// runs on.
//
// The framework has four planes, mirroring the paper:
//
//   - event mScopeMonitors trace every request's four boundary timestamps
//     (Upstream Arrival/Departure, Downstream Sending/Receiving) through
//     each component's native log, propagating a fixed-width request ID;
//   - resource mScopeMonitors (simulated SAR, iostat, collectl) sample
//     node counters at millisecond timescales into their native formats;
//   - mScopeDataTransformer unifies those heterogeneous logs through a
//     declarative parse → annotated-XML → CSV pipeline;
//   - mScopeDB stores the result in dynamically created tables served by
//     a scan/window-aggregate engine and a small query language.
//
// This package is exactly the API the programs under examples/ compile
// against, plus aliases for the types in its signatures; a guard test
// keeps it that way. The mscope command and everything else inside the
// module use the internal packages directly.
//
// Quickstart:
//
//	cfg := milliscope.ScenarioDBIO(logDir)
//	res, err := milliscope.RunExperiment(cfg)
//	// ...
//	db, _, err := res.Ingest(workDir)
//	// ...
//	fig, pit, err := milliscope.Fig2PointInTime(db, 50*time.Millisecond)
//	fig.Render(os.Stdout, 80, 16)
//	out, err := milliscope.Query(db, "SELECT reqid, rt_us FROM apache_event ORDER BY rt_us DESC LIMIT 5")
package milliscope

import (
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

type (
	// ExperimentConfig describes one monitored trial.
	ExperimentConfig = core.ExperimentConfig
	// ExperimentResult is a completed trial.
	ExperimentResult = core.ExperimentResult
	// OverheadPoint is one cell of the Figures 10/11 sweep.
	OverheadPoint = core.OverheadPoint
	// DB is the mScopeDB warehouse.
	DB = mscopedb.DB
	// QueryOutput is a rendered query result.
	QueryOutput = mql.Output
	// Trace is one request's reconstructed causal path.
	Trace = tracegraph.Trace
	// Diagnosis is the full VSB analysis of an ingested trial.
	Diagnosis = core.Diagnosis
)

// Tiers lists the testbed tiers front to back ("apache", "tomcat",
// "cjdbc", "mysql").
var Tiers = core.Tiers

// RunExperiment executes one monitored trial to completion.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return core.RunExperiment(cfg)
}

// ScenarioDBIO configures the Section V-A database-IO bottleneck trial
// (Figures 2, 4, 6, 7).
func ScenarioDBIO(logDir string) ExperimentConfig { return core.ScenarioDBIO(logDir) }

// ScenarioDirtyPage configures the Section V-B dirty-page recycling trial
// (Figure 8).
func ScenarioDirtyPage(logDir string) ExperimentConfig { return core.ScenarioDirtyPage(logDir) }

// ScenarioAccuracy configures the Figure 9 validation trial at the given
// workload.
func ScenarioAccuracy(logDir string, users int, duration time.Duration) ExperimentConfig {
	return core.ScenarioAccuracy(logDir, users, duration)
}

// ScenarioJVMGC configures a stop-the-world GC bottleneck trial.
func ScenarioJVMGC(logDir string) ExperimentConfig { return core.ScenarioJVMGC(logDir) }

// ScenarioDVFS configures a CPU-downclock bottleneck trial.
func ScenarioDVFS(logDir string) ExperimentConfig { return core.ScenarioDVFS(logDir) }

// MeasureOverheadSweep runs the monitors-on/off workload sweep behind
// Figures 10 and 11.
func MeasureOverheadSweep(workloads []int, duration time.Duration, mkLogDir func(string) string) ([]OverheadPoint, error) {
	return core.MeasureOverheadSweep(workloads, duration, mkLogDir)
}

// Pipeline extension types: a custom monitor is added by appending a
// Binding (file pattern → parser + instructions) to a Plan — the Parsing
// Declaration stage is data, not code.
type (
	// Plan is the Parsing Declaration: the binding registry.
	Plan = transform.Plan
	// Binding maps a log-file pattern to a parser and its instructions.
	Binding = transform.Binding
	// Instructions direct how a parser injects semantics into its input.
	Instructions = parsers.Instructions
	// TimeRule normalizes a raw timestamp field.
	TimeRule = parsers.TimeRule
)

// DefaultPlan returns the standard declaration covering every monitor this
// framework ships. Append bindings to cover custom log formats.
func DefaultPlan() *Plan { return transform.DefaultPlan() }

// IngestDir pushes a log directory through the transformation pipeline
// into db using the given declaration plan, under the default FailFast
// policy.
func IngestDir(db *DB, logDir, workDir string, plan *Plan) (transform.Report, error) {
	return transform.IngestDir(db, logDir, workDir, plan)
}

// OpenDB returns an empty warehouse.
func OpenDB() *DB { return mscopedb.Open() }

// Query runs an MQL statement ("SELECT ... FROM ... [WHERE ...]",
// "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event").
func Query(db *DB, query string) (*QueryOutput, error) { return mql.Run(db, query) }

// BuildTraces joins the standard event tables into per-request causal
// paths keyed by request ID.
func BuildTraces(db *DB) (map[string]*Trace, error) {
	return tracegraph.Build(db, core.EventTables())
}

// Diagnose runs the full milliScope workflow over an ingested trial: VLRT
// window detection, pushback classification, and root-cause ranking with
// corroborating dirty-page and CPU-frequency sensors.
func Diagnose(db *DB, window time.Duration) (*Diagnosis, error) {
	return core.Diagnose(db, window)
}

// Figure builders (one per paper figure).
var (
	// Fig2PointInTime regenerates Figure 2.
	Fig2PointInTime = core.Fig2PointInTime
	// Fig4DiskUtil regenerates Figure 4.
	Fig4DiskUtil = core.Fig4DiskUtil
	// Fig6QueueLengths regenerates Figure 6.
	Fig6QueueLengths = core.Fig6QueueLengths
	// Fig7Correlation regenerates Figure 7.
	Fig7Correlation = core.Fig7Correlation
	// Fig8DirtyPage regenerates Figure 8a–d.
	Fig8DirtyPage = core.Fig8DirtyPage
	// Fig9Accuracy regenerates Figure 9.
	Fig9Accuracy = core.Fig9Accuracy
	// Fig10Overhead regenerates Figure 10.
	Fig10Overhead = core.Fig10Overhead
	// Fig11ThroughputRT regenerates Figure 11.
	Fig11ThroughputRT = core.Fig11ThroughputRT
)
