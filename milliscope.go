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
	"io"
	"net/http"
	"os"
	"time"

	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/scenario"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/serve"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Experiment configuration and execution.
type (
	// ExperimentConfig describes one monitored trial.
	ExperimentConfig = core.ExperimentConfig
	// ExperimentResult is a completed trial.
	ExperimentResult = core.ExperimentResult
	// OverheadPoint is one cell of the Figures 10/11 sweep.
	OverheadPoint = core.OverheadPoint
	// SystemConfig configures the simulated four-tier testbed.
	SystemConfig = ntier.Config
)

// Warehouse and analysis types.
type (
	// DB is the mScopeDB warehouse.
	DB = mscopedb.DB
	// Table is one warehouse table.
	Table = mscopedb.Table
	// Series is a window-aggregated time series.
	Series = mscopedb.Series
	// QueryOutput is a rendered query result.
	QueryOutput = mql.Output
	// Figure is a renderable evaluation figure.
	Figure = report.Figure
	// PITResult is a Point-in-Time response time computation.
	PITResult = metrics.PITResult
	// Trace is one request's reconstructed causal path.
	Trace = tracegraph.Trace
	// IngestReport summarizes a pipeline run.
	IngestReport = transform.Report
)

// Tiers lists the testbed tiers front to back ("apache", "tomcat",
// "cjdbc", "mysql").
var Tiers = core.Tiers

// RunExperiment executes one monitored trial to completion.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return core.RunExperiment(cfg)
}

// DefaultSystemConfig returns the paper's four-tier testbed configuration.
func DefaultSystemConfig() SystemConfig { return ntier.DefaultConfig() }

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
	// DeriveRule extracts extra fields from an extracted field.
	DeriveRule = parsers.DeriveRule
	// TimeRule normalizes a raw timestamp field.
	TimeRule = parsers.TimeRule
	// LineRule matches one line of a lines-mode record.
	LineRule = parsers.LineRule
)

// DefaultPlan returns the standard declaration covering every monitor this
// framework ships. Append bindings to cover custom log formats.
func DefaultPlan() *Plan { return transform.DefaultPlan() }

// IngestDir pushes a log directory through the transformation pipeline
// into db using the given declaration plan, under the default FailFast
// policy.
func IngestDir(db *DB, logDir, workDir string, plan *Plan) (IngestReport, error) {
	return transform.IngestDir(db, logDir, workDir, plan)
}

// Degraded-mode ingest types.
type (
	// IngestOptions selects the ingest policy, error budget and
	// quarantine directory.
	IngestOptions = transform.Options
	// IngestPolicy is FailFast or Quarantine.
	IngestPolicy = transform.Policy
	// FileFailure records one file rejected under Quarantine.
	FileFailure = transform.FileFailure
)

// Ingest policies.
const (
	// IngestFailFast aborts the ingest on the first malformed line.
	IngestFailFast = transform.FailFast
	// IngestQuarantine diverts malformed regions to per-file sinks and
	// rejects only files whose corruption exceeds the error budget.
	IngestQuarantine = transform.Quarantine
)

// ErrFileRejected marks a per-file quarantine-mode rejection inside
// IngestReport.Failed.
var ErrFileRejected = transform.ErrFileRejected

// ParseIngestPolicy converts a CLI string ("fail-fast", "quarantine").
func ParseIngestPolicy(s string) (IngestPolicy, error) { return transform.ParsePolicy(s) }

// IngestDirWithOptions is the policy-aware ingest: under Quarantine,
// malformed input is diverted and damaged files are rejected per-file
// instead of aborting the run.
func IngestDirWithOptions(db *DB, logDir, workDir string, plan *Plan, opts IngestOptions) (IngestReport, error) {
	return transform.IngestDirWithOptions(db, logDir, workDir, plan, opts)
}

// Fault-injection types (the chaos harness).
type (
	// FaultConfig parameterizes one deterministic corruption pass.
	FaultConfig = faults.Config
	// FaultKind names one injectable fault class.
	FaultKind = faults.Kind
	// FaultReport itemizes what a corruption pass injected where.
	FaultReport = faults.Report
)

// Fault classes.
const (
	FaultGarbage    = faults.KindGarbage
	FaultTorn       = faults.KindTorn
	FaultDuplicate  = faults.KindDuplicate
	FaultTruncate   = faults.KindTruncate
	FaultSkew       = faults.KindSkew
	FaultGap        = faults.KindGap
	FaultDeleteTier = faults.KindDeleteTier
)

// CorruptLogs copies srcDir to dstDir injecting the configured faults;
// same seed + same input ⇒ byte-identical output.
func CorruptLogs(srcDir, dstDir string, cfg FaultConfig) (*FaultReport, error) {
	return faults.Corrupt(srcDir, dstDir, cfg)
}

// ParseFaultKinds converts a comma-separated kind list to FaultKinds.
func ParseFaultKinds(s string) ([]FaultKind, error) { return faults.ParseKinds(s) }

// OpenDB returns an empty warehouse.
func OpenDB() *DB { return mscopedb.Open() }

// StoreOptions tunes the on-disk segment store (spill threshold,
// compaction policy). The zero value applies the defaults.
type StoreOptions = mscopedb.StoreOptions

// OpenDBDir opens (or creates) the warehouse directory dir, an on-disk
// segment store: full segments go to disk as they fill, Checkpoint
// commits, and queries prune segments by zone map before decoding.
func OpenDBDir(dir string, opts StoreOptions) (*DB, error) { return mscopedb.OpenDir(dir, opts) }

// Query runs an MQL statement ("SELECT ... FROM ... [WHERE ...]",
// "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event").
func Query(db *DB, query string) (*QueryOutput, error) { return mql.Run(db, query) }

// BuildTraces joins the standard event tables into per-request causal
// paths keyed by request ID.
func BuildTraces(db *DB) (map[string]*Trace, error) {
	tables := make([]string, len(Tiers))
	for i, t := range Tiers {
		tables[i] = t + "_event"
	}
	return tracegraph.Build(db, tables)
}

// TraceBuildReport summarizes a degraded-mode trace construction.
type TraceBuildReport = tracegraph.BuildReport

// BuildTracesPartial joins whichever standard event tables exist into
// per-request causal paths, flagging traces that provably lack a missing
// tier instead of failing when a tier's table is absent.
func BuildTracesPartial(db *DB) (map[string]*Trace, *TraceBuildReport, error) {
	tables := make([]string, len(Tiers))
	for i, t := range Tiers {
		tables[i] = t + "_event"
	}
	return tracegraph.BuildPartial(db, tables)
}

// RenderTrace draws one request's causal path as a swimlane (Figure 5),
// annotating incomplete traces with their missing tiers and coverage.
func RenderTrace(w io.Writer, tr *Trace, width int) error {
	return report.RenderTrace(w, tr, width)
}

// RenderTraceCoverage summarizes a partial trace construction for humans.
func RenderTraceCoverage(w io.Writer, rep *TraceBuildReport) error {
	return report.RenderCoverage(w, rep)
}

// TierProfile aggregates a tier's latency contribution across traces.
type TierProfile = tracegraph.TierProfile

// AggregateBreakdown profiles every tier's latency contribution (mean and
// p99 tier-local time) across a trace set.
func AggregateBreakdown(traces map[string]*Trace) map[string]TierProfile {
	return tracegraph.AggregateBreakdown(traces)
}

// Diagnosis types.
type (
	// Diagnosis is the full VSB analysis of an ingested trial.
	Diagnosis = core.Diagnosis
	// WindowDiagnosis explains one VLRT window.
	WindowDiagnosis = core.WindowDiagnosis
	// CauseKind classifies a diagnosed root cause.
	CauseKind = core.CauseKind
)

// Root-cause classes.
const (
	CauseUnknown       = core.CauseUnknown
	CauseDiskIO        = core.CauseDiskIO
	CauseDirtyPage     = core.CauseDirtyPage
	CauseCPU           = core.CauseCPU
	CauseDVFS          = core.CauseDVFS
	CauseCacheStampede = core.CauseCacheStampede
	CauseNetJitter     = core.CauseNetJitter
	CauseLockConvoy    = core.CauseLockConvoy
	CauseConnPool      = core.CauseConnPool
	CauseCrashLoop     = core.CauseCrashLoop
)

// ParseCauseKind resolves a cause-kind name ("disk-io") to its value.
func ParseCauseKind(s string) (CauseKind, bool) { return core.ParseCauseKind(s) }

// Diagnose runs the full milliScope workflow over an ingested trial: VLRT
// window detection, pushback classification, and root-cause ranking with
// corroborating dirty-page and CPU-frequency sensors.
func Diagnose(db *DB, window time.Duration) (*Diagnosis, error) {
	return core.Diagnose(db, window)
}

// ConsistencyReport is the warehouse integrity check result.
type ConsistencyReport = core.ConsistencyReport

// ValidateWarehouse cross-checks the event tables for record conservation
// across tiers — the no-sampling guarantee made testable.
func ValidateWarehouse(db *DB) (*ConsistencyReport, error) {
	return core.ValidateWarehouse(db)
}

// ScenarioJVMGC configures a stop-the-world GC bottleneck trial.
func ScenarioJVMGC(logDir string) ExperimentConfig { return core.ScenarioJVMGC(logDir) }

// ScenarioDVFS configures a CPU-downclock bottleneck trial.
func ScenarioDVFS(logDir string) ExperimentConfig { return core.ScenarioDVFS(logDir) }

// Declarative fault-scenario registry (internal/scenario): every catalogue
// entry binds an injector configuration and workload mix to the verdict
// the diagnosis must reach, making the fault taxonomy an executable test
// suite (`mscope scenario {list,run,verify}`).
type (
	// Scenario is one declarative catalogue entry.
	Scenario = scenario.Spec
	// ScenarioVerdict is the diagnosis a scenario trial must produce.
	ScenarioVerdict = scenario.Verdict
	// ScenarioOptions tunes scenario execution and verification.
	ScenarioOptions = scenario.Options
	// ScenarioOutcome reports one scenario verification.
	ScenarioOutcome = scenario.Outcome
)

// Scenarios returns the registered catalogue in listing order.
func Scenarios() []Scenario { return scenario.Scenarios() }

// ScenarioByName finds one catalogue entry.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.ByName(name) }

// DecodeScenario parses and validates a declarative scenario spec.
func DecodeScenario(data []byte) (*Scenario, error) { return scenario.Decode(data) }

// BuildScenario turns a scenario spec into a runnable experiment writing
// its monitor logs under logDir.
func BuildScenario(s *Scenario, logDir string) (ExperimentConfig, error) {
	return scenario.Build(s, logDir)
}

// RunScenario executes a scenario's trial and batch workflow (simulate,
// corrupt, ingest, diagnose), returning the diagnosis and the directory
// holding the logs it consumed.
func RunScenario(s *Scenario, opts ScenarioOptions) (*Diagnosis, string, error) {
	return scenario.Run(s, opts)
}

// VerifyScenario runs a scenario end to end and checks the diagnosis —
// and, with Options.Live, the online detector — against its registered
// expectation.
func VerifyScenario(s *Scenario, opts ScenarioOptions) (*ScenarioOutcome, error) {
	return scenario.Verify(s, opts)
}

// RenderScenarioList formats the catalogue as the `mscope scenario list`
// table.
func RenderScenarioList(specs []Scenario) string { return scenario.RenderList(specs) }

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

// Live streaming pipeline: incremental ingest and online millibottleneck
// detection over growing log files (internal/stream).
type (
	// LiveConfig parameterizes a live pipeline.
	LiveConfig = stream.Config
	// LivePipeline tails logs, appends rows incrementally, and raises
	// millibottleneck alerts online.
	LivePipeline = stream.Pipeline
	// LiveStatus is a point-in-time pipeline snapshot.
	LiveStatus = stream.Status
	// LiveAlert is one online millibottleneck verdict.
	LiveAlert = stream.Alert
	// LiveProducerConfig parameterizes a staged-log replay.
	LiveProducerConfig = stream.ProducerConfig
	// LiveProducer replays a finished trial's logs at wall-clock pace.
	LiveProducer = stream.Producer
	// LiveFidelityOptions configures adaptive degradation under overload
	// (Config.Fidelity): rollup-instead-of-append with ring-buffered
	// anomaly-neighbourhood promotion.
	LiveFidelityOptions = stream.FidelityOptions
	// LiveFidelityStatus is the degradation subsystem's snapshot inside
	// LiveStatus.
	LiveFidelityStatus = stream.FidelityStatus
	// Overload shapes a replay into a burst against a throttled consumer —
	// the overload injector for chaos drills.
	Overload = faults.Overload
)

// Fidelity modes for LiveFidelityOptions.Mode.
const (
	// FidelityModeFull disables degradation (the default).
	FidelityModeFull = stream.FidelityFull
	// FidelityModeAdaptive lets the hysteresis controller move between
	// full, aggregate and shed as pressure demands.
	FidelityModeAdaptive = stream.FidelityAdaptive
	// FidelityModeAggregate pins degraded mode — every record rolls up,
	// full rows surface only by anomaly promotion.
	FidelityModeAggregate = stream.FidelityAggregate
)

// ParseOverload parses an "at=0.2,until=0.5,factor=12,delay=300us"
// overload spec.
func ParseOverload(spec string) (Overload, error) { return faults.ParseOverload(spec) }

// NewLivePipeline builds a live pipeline; call Start then Stop on it.
func NewLivePipeline(cfg LiveConfig) (*LivePipeline, error) { return stream.New(cfg) }

// NewLiveProducer stages a replay of a finished trial's streamable logs.
func NewLiveProducer(cfg LiveProducerConfig) (*LiveProducer, error) { return stream.NewProducer(cfg) }

// LiveDebugHandler serves Go runtime introspection (/debug/pprof/*,
// /debug/vars) for a live pipeline. Bind it to its own listener
// (`mscope live --debug-addr`) — never the metrics/status one.
func LiveDebugHandler(p *LivePipeline) http.Handler { return stream.DebugHandler(p) }

// Self-observability: milliScope instruments its own pipelines with the
// same timestamped-span methodology it applies to the n-tier system
// (internal/selfobs). Enable before an ingest/live run, write the
// collected telemetry as a milliScope-native log, then ingest that log
// like any other and analyze it with SelfTraceBreakdown.
type (
	// SelfObsCollector accumulates spans and counters for one batch.
	SelfObsCollector = selfobs.Collector
	// SelfTraceBatch is one instrumented run reconstructed from *_selftrace
	// warehouse tables.
	SelfTraceBatch = core.SelfBatch
	// SelfTraceStage is a per-(pipeline, stage) critical-path aggregate.
	SelfTraceStage = core.SelfStage
	// SelfTraceCounter is one counter snapshot from a batch.
	SelfTraceCounter = core.SelfCounter
)

// SelfObsEnable turns self-telemetry on process-wide. batch names the run
// in the emitted log; epoch anchors its wall-clock timestamps. Returns
// the active collector; pass it to WriteSelfLog after the run.
func SelfObsEnable(batch string, epoch time.Time) *SelfObsCollector {
	return selfobs.Enable(batch, epoch)
}

// SelfObsDisable turns self-telemetry off and returns the collector that
// was active, if any.
func SelfObsDisable() *SelfObsCollector { return selfobs.Disable() }

// WriteSelfLog writes the collector's telemetry to path in the
// self-trace log format the built-in Parsing Declaration routes (name the
// file *_selftrace.log — e.g. mscope_selftrace.log — so a later ingest
// picks it up). Returns the number of lines written.
func WriteSelfLog(c *SelfObsCollector, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := c.WriteLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// SelfTraceBreakdown aggregates every *_selftrace table in the warehouse
// into per-batch, per-stage critical-path summaries.
func SelfTraceBreakdown(db *DB) ([]SelfTraceBatch, error) { return core.SelfTraceBreakdown(db) }

// RenderSelfTrace prints per-batch critical-path tables for human eyes.
func RenderSelfTrace(w io.Writer, batches []SelfTraceBatch) error {
	return core.RenderSelfTrace(w, batches)
}

// Fleet-wide self-telemetry: when agents and the collector run with
// SelfTrace enabled, every node ships its own spans over the same wire
// protocol as the monitor logs, and the collector's warehouse holds one
// *_selftrace table per node.
type (
	// FleetSelfTrace is the cross-node per-batch critical path: every
	// node's spans merged on one absolute time axis with node attribution.
	FleetSelfTrace = core.FleetSelfTrace
	// FleetSelfTraceStage is one (node, pipeline, stage) aggregate.
	FleetSelfTraceStage = core.FleetStage
)

// FleetSelfTraceBreakdown merges every node's *_selftrace table into one
// fleet-wide critical path. Returns (nil, nil) when the warehouse holds
// no self-telemetry.
func FleetSelfTraceBreakdown(db *DB) (*FleetSelfTrace, error) {
	return core.FleetSelfTraceBreakdown(db)
}

// RenderFleetSelfTrace prints the fleet-wide breakdown for human eyes.
func RenderFleetSelfTrace(w io.Writer, ft *FleetSelfTrace) error {
	return core.RenderFleetSelfTrace(w, ft)
}

// Flamegraph rendering: the per-request waterfall/critical-path data
// model behind `mscope serve` (internal/tracegraph).
type (
	// TraceFlame is one request laid out for rendering: frames on a
	// shared time axis, nested by tier depth, each charged its
	// critical-path self time.
	TraceFlame = tracegraph.Flame
	// TraceFrame is one box of a TraceFlame.
	TraceFrame = tracegraph.Frame
)

// BuildFlame lays one reconstructed trace out as a flamegraph; render it
// with (*TraceFlame).WriteSVG or serve it as JSON.
func BuildFlame(tr *Trace) *TraceFlame { return tracegraph.BuildFlame(tr) }

// Observability service (internal/serve): the HTTP surface behind
// `mscope serve`, attachable to a saved warehouse or a live pipeline.
type (
	// ServeConfig attaches the service to exactly one warehouse source.
	ServeConfig = serve.Config
	// ObservabilityServer answers MQL and window-aggregation queries,
	// renders waterfalls and critical-path flamegraphs, and exposes the
	// diagnosis timeline with full evidence.
	ObservabilityServer = serve.Server
)

// NewObservabilityServer validates the config and builds the service;
// mount its Handler on a listener.
func NewObservabilityServer(cfg ServeConfig) (*ObservabilityServer, error) {
	return serve.New(cfg)
}

// Distributed deployment: per-node agents tail and parse their own
// monitor logs and ship checkpointed column batches to one central
// collector, whose warehouse is byte-identical to single-process ingest
// of the same logs (internal/agentd, internal/collector).
type (
	// AgentConfig parameterizes one per-node shipping agent.
	AgentConfig = agentd.Config
	// Agent tails a node's logs and ships parsed batches to a collector.
	// Start launches it; Stop drains to EOF and says goodbye.
	Agent = agentd.Agent
	// AgentStatus is a point-in-time agent snapshot.
	AgentStatus = agentd.Status
	// CollectorConfig parameterizes the central ingest server. Its Engine
	// field is a LiveConfig with LogDir left empty: window, skew, error
	// budget and fidelity apply exactly as in `mscope live`.
	CollectorConfig = collector.Config
	// Collector accepts agent connections, acks durable offsets, and
	// feeds the shared streaming engine — warehouse, watermark, online
	// detector and all.
	Collector = collector.Collector
	// CollectorStatus is a point-in-time collector snapshot.
	CollectorStatus = collector.Status
)

// NewAgent validates the config and builds a shipping agent.
func NewAgent(cfg AgentConfig) (*Agent, error) { return agentd.New(cfg) }

// NewCollector builds the central collector and its remote-fed engine.
func NewCollector(cfg CollectorConfig) (*Collector, error) { return collector.New(cfg) }
