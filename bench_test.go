// Benchmark harness: one benchmark per paper figure (the paper's
// evaluation has no numbered tables), plus ablation benchmarks for the
// design decisions DESIGN.md calls out. Each benchmark regenerates its
// figure from a monitored trial and reports the figure's headline numbers
// as custom metrics, so `go test -bench=.` reproduces the evaluation.
//
// Expensive trials (scenario runs, the workload sweep) execute once per
// process via sync.Once and are excluded from the timed loop; the timed
// region is the figure derivation from the warehouse.
package milliscope_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/eventmon"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/sysviz"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// --- shared trial state ---

var (
	scenAOnce sync.Once
	scenADB   *milliscope.DB
	scenAWork string
	scenALogs string
	scenAErr  error

	scenBOnce sync.Once
	scenBDB   *milliscope.DB
	scenBErr  error

	accOnce sync.Once
	accDB   *milliscope.DB
	accRes  *milliscope.ExperimentResult
	accErr  error

	sweepOnce sync.Once
	sweepPts  []milliscope.OverheadPoint
	sweepErr  error
)

func tmp(b *testing.B, label string) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "mscope-bench-"+label+"-")
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

func scenarioA(b *testing.B) *milliscope.DB {
	b.Helper()
	scenAOnce.Do(func() {
		logs, err := os.MkdirTemp("", "mscope-bench-dbio-")
		if err != nil {
			scenAErr = err
			return
		}
		res, err := milliscope.RunExperiment(milliscope.ScenarioDBIO(logs))
		if err != nil {
			scenAErr = err
			return
		}
		scenALogs = logs
		scenAWork, err = os.MkdirTemp("", "mscope-bench-dbio-work-")
		if err != nil {
			scenAErr = err
			return
		}
		scenADB, _, scenAErr = res.Ingest(scenAWork)
	})
	if scenAErr != nil {
		b.Fatal(scenAErr)
	}
	return scenADB
}

func scenarioB(b *testing.B) *milliscope.DB {
	b.Helper()
	scenBOnce.Do(func() {
		logs, err := os.MkdirTemp("", "mscope-bench-dirty-")
		if err != nil {
			scenBErr = err
			return
		}
		res, err := milliscope.RunExperiment(milliscope.ScenarioDirtyPage(logs))
		if err != nil {
			scenBErr = err
			return
		}
		work, err := os.MkdirTemp("", "mscope-bench-dirty-work-")
		if err != nil {
			scenBErr = err
			return
		}
		scenBDB, _, scenBErr = res.Ingest(work)
	})
	if scenBErr != nil {
		b.Fatal(scenBErr)
	}
	return scenBDB
}

func accuracyRun(b *testing.B) (*milliscope.DB, *milliscope.ExperimentResult) {
	b.Helper()
	accOnce.Do(func() {
		logs, err := os.MkdirTemp("", "mscope-bench-acc-")
		if err != nil {
			accErr = err
			return
		}
		// The paper validates at workload 8000; the 7-minute trial is
		// scaled to 15 s of simulated time.
		accRes, accErr = milliscope.RunExperiment(
			milliscope.ScenarioAccuracy(logs, 8000, 15*time.Second))
		if accErr != nil {
			return
		}
		work, err := os.MkdirTemp("", "mscope-bench-acc-work-")
		if err != nil {
			accErr = err
			return
		}
		accDB, _, accErr = accRes.Ingest(work)
	})
	if accErr != nil {
		b.Fatal(accErr)
	}
	return accDB, accRes
}

func sweep(b *testing.B) []milliscope.OverheadPoint {
	b.Helper()
	sweepOnce.Do(func() {
		base, err := os.MkdirTemp("", "mscope-bench-sweep-")
		if err != nil {
			sweepErr = err
			return
		}
		sweepPts, sweepErr = milliscope.MeasureOverheadSweep(
			[]int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000},
			6*time.Second,
			func(name string) string { return filepath.Join(base, name) })
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepPts
}

// --- figure benchmarks ---

// BenchmarkFig2PointInTimeRT regenerates Figure 2: the Point-in-Time
// response time whose peak is >20x the average during the DB-IO VSB.
func BenchmarkFig2PointInTimeRT(b *testing.B) {
	db := scenarioA(b)
	b.ResetTimer()
	var pit *metrics.PITResult
	for i := 0; i < b.N; i++ {
		var err error
		_, pit, err = milliscope.Fig2PointInTime(db, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pit.PeakFactor(), "peak/avg")
	b.ReportMetric(pit.AvgUS/1000, "avgRT_ms")
	b.ReportMetric(pit.MaxUS/1000, "maxRT_ms")
}

// BenchmarkFig4DiskUtilization regenerates Figure 4: DB-tier disk
// saturation while the other tiers stay low.
func BenchmarkFig4DiskUtilization(b *testing.B) {
	db := scenarioA(b)
	b.ResetTimer()
	var series map[string]*mscopedb.Series
	for i := 0; i < b.N; i++ {
		var err error
		_, series, err = milliscope.Fig4DiskUtil(db, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	peak := func(tier string) float64 {
		p := 0.0
		for _, v := range series[tier].Values {
			p = math.Max(p, v)
		}
		return p
	}
	b.ReportMetric(peak("mysql"), "mysql_peak_%")
	b.ReportMetric(peak("apache"), "apache_peak_%")
	b.ReportMetric(peak("tomcat"), "tomcat_peak_%")
}

// BenchmarkFig5TraceReconstruction regenerates Figure 5's substance: join
// every request's four-timestamp records across the tiers into causal
// paths and validate happens-before on all of them.
func BenchmarkFig5TraceReconstruction(b *testing.B) {
	db := scenarioA(b)
	b.ResetTimer()
	var traces map[string]*milliscope.Trace
	for i := 0; i < b.N; i++ {
		var err error
		traces, err = milliscope.BuildTraces(db)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	valid := 0
	for _, tr := range traces {
		if err := tr.Validate(milliscope.Tiers, 1500*time.Microsecond); err != nil {
			b.Fatalf("trace validation: %v", err)
		}
		valid++
	}
	b.ReportMetric(float64(valid), "tracesReconstructed")
	prof := tracegraph.AggregateBreakdown(traces)
	b.ReportMetric(float64(prof["mysql"].P99Local.Microseconds())/1000, "mysqlP99Local_ms")
}

// BenchmarkFig6QueueLengths regenerates Figure 6: cross-tier pushback.
func BenchmarkFig6QueueLengths(b *testing.B) {
	db := scenarioA(b)
	b.ResetTimer()
	var queues map[string]*mscopedb.Series
	for i := 0; i < b.N; i++ {
		var err error
		_, queues, err = milliscope.Fig6QueueLengths(db, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, pit, err := milliscope.Fig2PointInTime(db, 50*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	windows := core.VLRTEpisodes(pit.Series, pit.AvgUS)
	if len(windows) == 0 {
		b.Fatal("no VLRT window")
	}
	w := windows[0]
	w.StartMicros -= (400 * time.Millisecond).Microseconds()
	pb := analysis.DetectPushback(queues, milliscope.Tiers, w, 2.5)
	cross := 0.0
	if pb.CrossTier {
		cross = 1
	}
	b.ReportMetric(cross, "crossTierPushback")
	b.ReportMetric(float64(len(pb.Grew)), "tiersGrew")
}

// BenchmarkFig7Correlation regenerates Figure 7: DB disk utilization vs
// Apache queue length over the bottleneck window.
func BenchmarkFig7Correlation(b *testing.B) {
	db := scenarioA(b)
	_, pit, err := milliscope.Fig2PointInTime(db, 50*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	windows := core.VLRTEpisodes(pit.Series, pit.AvgUS)
	if len(windows) == 0 {
		b.Fatal("no VLRT window")
	}
	pad := time.Second.Microseconds()
	b.ResetTimer()
	var corr float64
	for i := 0; i < b.N; i++ {
		_, corr, err = milliscope.Fig7Correlation(db, 50*time.Millisecond,
			windows[0].StartMicros-pad, windows[0].EndMicros+pad)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corr, "correlation")
}

// BenchmarkFig8DirtyPage regenerates Figure 8a–d: the two dirty-page
// recycling peaks and their differing queue signatures.
func BenchmarkFig8DirtyPage(b *testing.B) {
	db := scenarioB(b)
	b.ResetTimer()
	var stats *core.Fig8Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = milliscope.Fig8DirtyPage(db, 50*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(stats.VLRTWindows)), "vlrtPeaks")
	b.ReportMetric(stats.PIT.PeakFactor(), "peak/avg")
	cross2 := 0.0
	if len(stats.Pushback) == 2 && stats.Pushback[1].CrossTier && !stats.Pushback[0].CrossTier {
		cross2 = 1
	}
	b.ReportMetric(cross2, "peak1SingleTier_peak2Cross")
}

// BenchmarkFig9AccuracyVsSysViz regenerates Figure 9 at workload 8000:
// per-tier queue lengths by event monitors vs SysViz reconstruction.
func BenchmarkFig9AccuracyVsSysViz(b *testing.B) {
	db, res := accuracyRun(b)
	msgs := res.Capture.Messages()
	b.ResetTimer()
	var stats map[string]core.Fig9Stat
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = milliscope.Fig9Accuracy(db, msgs, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	minCorr, maxMAE := 1.0, 0.0
	for _, st := range stats {
		minCorr = math.Min(minCorr, st.Correlation)
		maxMAE = math.Max(maxMAE, st.MAE)
	}
	b.ReportMetric(minCorr, "minTierCorr")
	b.ReportMetric(maxMAE, "maxTierMAE_reqs")
}

// BenchmarkFig10Overhead regenerates Figure 10: IOWait and disk-write
// amplification of the event monitors across the workload sweep.
func BenchmarkFig10Overhead(b *testing.B) {
	points := sweep(b)
	b.ResetTimer()
	var figs []*report.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = milliscope.Fig10Overhead(points)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = figs
	// Aggregate: mean write amplification and added CPU on tomcat (the
	// paper's worst case) and apache.
	var ampT, cpuT, cpuA, n float64
	for _, p := range points {
		if !p.Enabled {
			continue
		}
		var off *milliscope.OverheadPoint
		for j := range points {
			if !points[j].Enabled && points[j].Workload == p.Workload {
				off = &points[j]
				break
			}
		}
		if off == nil {
			continue
		}
		if d := off.DiskWriteKB["tomcat"]; d > 0 {
			ampT += p.DiskWriteKB["tomcat"] / d
		}
		cpuT += p.CPUPct["tomcat"] - off.CPUPct["tomcat"]
		cpuA += p.CPUPct["apache"] - off.CPUPct["apache"]
		n++
	}
	b.ReportMetric(ampT/n, "tomcatWriteAmp_x")
	b.ReportMetric(cpuT/n, "tomcatAddedCPU_%")
	b.ReportMetric(cpuA/n, "apacheAddedCPU_%")
}

// BenchmarkFig11ThroughputRT regenerates Figure 11: throughput and RT
// with monitors on vs off.
func BenchmarkFig11ThroughputRT(b *testing.B) {
	points := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := milliscope.Fig11ThroughputRT(points); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var tpDelta, rtDelta, n float64
	for _, p := range points {
		if !p.Enabled {
			continue
		}
		for j := range points {
			if !points[j].Enabled && points[j].Workload == p.Workload {
				off := points[j]
				if off.Throughput > 0 {
					tpDelta += math.Abs(p.Throughput-off.Throughput) / off.Throughput * 100
				}
				rtDelta += float64((p.MeanRT - off.MeanRT).Microseconds()) / 1000
				n++
			}
		}
	}
	b.ReportMetric(tpDelta/n, "throughputDelta_%")
	b.ReportMetric(rtDelta/n, "addedRT_ms")
}

// --- ablation benchmarks ---

// BenchmarkAblationSampling quantifies design decision 1 (trace every
// request, no sampling): a 1-second sampling monitor reports the windowed
// MEAN response time and misses the VSB peak that 50 ms full tracing sees.
func BenchmarkAblationSampling(b *testing.B) {
	db := scenarioA(b)
	tbl, err := db.Table("apache_event")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fullFactor, sampledFactor float64
	for i := 0; i < b.N; i++ {
		res, err := tbl.Select().Rows()
		if err != nil {
			b.Fatal(err)
		}
		// Full tracing: 50ms windows of per-window max.
		full, err := res.WindowAgg("ud", 50*time.Millisecond, "rt_us", mscopedb.AggMax)
		if err != nil {
			b.Fatal(err)
		}
		// Coarse monitor: 1s windows of per-window mean (what a sampled
		// aggregate at 1s intervals reports).
		coarse, err := res.WindowAgg("ud", time.Second, "rt_us", mscopedb.AggAvg)
		if err != nil {
			b.Fatal(err)
		}
		fullFactor = peakOverMean(full)
		sampledFactor = peakOverMean(coarse)
	}
	b.ReportMetric(fullFactor, "fullTracingPeakFactor")
	b.ReportMetric(sampledFactor, "sampled1sPeakFactor")
}

func peakOverMean(s *mscopedb.Series) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum, peak, n := 0.0, 0.0, 0.0
	for _, v := range s.Values {
		if v <= 0 {
			continue
		}
		sum += v
		n++
		peak = math.Max(peak, v)
	}
	if sum == 0 || n == 0 {
		return 0
	}
	return peak / (sum / n)
}

// BenchmarkAblationNestingAccuracy quantifies design decision 5 (explicit
// ID propagation vs SysViz timing-based nesting): the fraction of causal
// links that timing inference attributes correctly at workload 8000.
func BenchmarkAblationNestingAccuracy(b *testing.B) {
	_, res := accuracyRun(b)
	msgs := res.Capture.Messages()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		txns, err := sysviz.MatchTransactions(msgs)
		if err != nil {
			b.Fatal(err)
		}
		sysviz.BuildTraces(txns)
		correct, total := sysviz.PathAccuracy(txns)
		if total == 0 {
			b.Fatal("no links")
		}
		acc = float64(correct) / float64(total)
	}
	b.ReportMetric(acc, "sysvizNestingAccuracy")
	b.ReportMetric(1.0, "mscopeIDAccuracy")
}

// BenchmarkAblationSyncLogging quantifies design decision 2 (leveraging
// buffered native logging): event monitors with a 15x per-record CPU cost
// — a synchronous write()+flush path — degrade latency where the async
// path does not.
func BenchmarkAblationSyncLogging(b *testing.B) {
	// The logging cost only matters when it competes for CPU the request
	// path needs: run near the app tier's saturation point, where a 15x
	// per-record cost (a synchronous write-and-flush path) pushes the node
	// over the edge while the buffered path stays healthy.
	runTrial := func(cfg eventmon.Config) ntier.RunStats {
		ncfg := ntier.DefaultConfig()
		ncfg.Users = 12000
		ncfg.Duration = 4 * time.Second
		ncfg.Seed = 77
		ec := core.ExperimentConfig{
			Name: "ablation-sync", Ntier: ncfg,
			EventMonitors: true, EventConfig: &cfg,
			LogDir: tmp(b, "sync"),
		}
		res, err := core.RunExperiment(ec)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats
	}
	b.ResetTimer()
	var async, sync ntier.RunStats
	for i := 0; i < b.N; i++ {
		async = runTrial(eventmon.DefaultConfig())
		syncCfg := eventmon.DefaultConfig()
		syncCfg.Apache.CPUPerRecord *= 15
		syncCfg.Tomcat.CPUPerRecord *= 15
		syncCfg.CJDBC.CPUPerRecord *= 15
		syncCfg.MySQL.CPUPerRecord *= 15
		sync = runTrial(syncCfg)
	}
	b.ReportMetric(float64(async.MeanRT.Microseconds())/1000, "asyncMeanRT_ms")
	b.ReportMetric(float64(sync.MeanRT.Microseconds())/1000, "syncMeanRT_ms")
	b.ReportMetric(float64((sync.MeanRT-async.MeanRT).Microseconds())/1000, "addedRT_ms")
}

// BenchmarkAblationSchemaTyping quantifies design decision 4 (bottom-up
// narrowest-type inference): warehouse footprint of a typed schema vs the
// same data loaded all-string.
func BenchmarkAblationSchemaTyping(b *testing.B) {
	scenarioA(b)
	// The ingest writes no artifacts by default; re-run it with Materialize
	// to export the CSV + schema files this ablation compares.
	matWork := tmp(b, "ablation-mat")
	defer os.RemoveAll(matWork)
	if _, err := transform.IngestDirWithOptions(milliscope.OpenDB(), scenALogs, matWork,
		milliscope.DefaultPlan(), transform.Options{Materialize: true}); err != nil {
		b.Fatal(err)
	}
	csvPath := filepath.Join(matWork, "mysql_event.csv")
	schemaPath := filepath.Join(matWork, "mysql_event.schema.json")
	if _, err := os.Stat(csvPath); err != nil {
		b.Fatal(err)
	}
	// All-string sidecar.
	sch, _, err := xmlcsv.ReadSchema(schemaPath)
	if err != nil {
		b.Fatal(err)
	}
	for i := range sch.Columns {
		sch.Columns[i].Type = "string"
	}
	strSchema := filepath.Join(tmp(b, "schema"), "mysql_event.schema.json")
	data, err := json.Marshal(sch)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(strSchema, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var typedBytes, strBytes int64
	var rows int
	for i := 0; i < b.N; i++ {
		tblT, err := xmlcsv.LoadFile(csvPath, schemaPath)
		if err != nil {
			b.Fatal(err)
		}
		tblS, err := xmlcsv.LoadFile(csvPath, strSchema)
		if err != nil {
			b.Fatal(err)
		}
		typedBytes, strBytes, rows = tblT.SizeBytes(), tblS.SizeBytes(), tblT.Rows()
	}
	if rows > 0 {
		b.ReportMetric(float64(typedBytes)/float64(rows), "typedBytes/row")
		b.ReportMetric(float64(strBytes)/float64(rows), "stringBytes/row")
		b.ReportMetric(float64(strBytes)/float64(typedBytes), "stringBloat_x")
	}
}

// BenchmarkAblationMinimalSchema quantifies design decision 3 (record only
// the four boundary timestamps): verbose per-phase tracing (6 extra
// records per visit) against the paper's minimal schema — log volume and
// client-visible impact.
func BenchmarkAblationMinimalSchema(b *testing.B) {
	runTrial := func(cfg eventmon.Config) (ntier.RunStats, float64) {
		ncfg := ntier.DefaultConfig()
		ncfg.Users = 2000
		ncfg.Duration = 4 * time.Second
		ncfg.Seed = 99
		ec := core.ExperimentConfig{
			Name: "ablation-schema", Ntier: ncfg,
			EventMonitors: true, EventConfig: &cfg,
			LogDir: tmp(b, "schema-trial"),
		}
		res, err := core.RunExperiment(ec)
		if err != nil {
			b.Fatal(err)
		}
		var extraKB float64
		for _, s := range res.Sys.Servers() {
			_, e := s.LogVolumeKB()
			extraKB += e
		}
		return res.Stats, extraKB
	}
	b.ResetTimer()
	var minimalKB, verboseKB float64
	var minimalRT, verboseRT time.Duration
	for i := 0; i < b.N; i++ {
		minCfg := eventmon.DefaultConfig()
		st, kb := runTrial(minCfg)
		minimalKB, minimalRT = kb, st.MeanRT
		verbCfg := eventmon.DefaultConfig()
		verbCfg.PhaseDetail = 6
		st, kb = runTrial(verbCfg)
		verboseKB, verboseRT = kb, st.MeanRT
	}
	b.ReportMetric(minimalKB, "minimalLogKB")
	b.ReportMetric(verboseKB, "verboseLogKB")
	b.ReportMetric(verboseKB/minimalKB, "volumeRatio_x")
	b.ReportMetric(float64((verboseRT-minimalRT).Microseconds())/1000, "addedRT_ms")
}

// BenchmarkEndToEndPipeline measures the whole framework path — simulate,
// monitor, transform, load — for a small trial, the number a user sizing a
// deployment cares about.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := milliscope.ScenarioDBIO(tmp(b, "e2e"))
		cfg.Ntier.Users = 60
		cfg.Ntier.Duration = 2 * time.Second
		cfg.Injectors = nil
		res, err := milliscope.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		db, rep, err := res.Ingest(tmp(b, "e2e-work"))
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalRows() == 0 {
			b.Fatal("no rows")
		}
		if _, err := db.Table("apache_event"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming pipeline benchmarks ---

var (
	corpusOnce sync.Once
	corpusDir  string
	corpusErr  error
)

// logCorpus stages one Section V-A trial and keeps only its streamable
// monitor logs (the four event logs and four collectl CSVs), so the batch
// and streaming ingests below consume exactly the same rows.
func logCorpus(b *testing.B) string {
	b.Helper()
	corpusOnce.Do(func() {
		base, err := os.MkdirTemp("", "mscope-bench-corpus-")
		if err != nil {
			corpusErr = err
			return
		}
		raw := filepath.Join(base, "raw")
		if _, err := milliscope.RunExperiment(milliscope.ScenarioDBIO(raw)); err != nil {
			corpusErr = err
			return
		}
		corpusDir = filepath.Join(base, "corpus")
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			corpusErr = err
			return
		}
		plan := milliscope.DefaultPlan()
		entries, err := os.ReadDir(raw)
		if err != nil {
			corpusErr = err
			return
		}
		for _, e := range entries {
			if e.IsDir() || !stream.Streamable(plan, e.Name()) {
				continue
			}
			data, err := os.ReadFile(filepath.Join(raw, e.Name()))
			if err != nil {
				corpusErr = err
				return
			}
			if err := os.WriteFile(filepath.Join(corpusDir, e.Name()), data, 0o644); err != nil {
				corpusErr = err
				return
			}
		}
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpusDir
}

// BenchmarkIngestBatch measures the offline workflow over the streamable
// corpus as bench/'s batch-ingest workload runs it: default options, a fresh
// warehouse directory, every file parsed whole, typed and installed, full
// segments spilled as they fill, and the closing checkpoint; no staged
// XML/CSV is written. It is the target of `make profile-ingest`, so the
// profile and the gated batch-ingest numbers describe the same program.
func BenchmarkIngestBatch(b *testing.B) {
	logs := logCorpus(b)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work, store := tmp(b, "batch-work"), tmp(b, "batch-db")
		b.StartTimer()
		db, err := mscopedb.OpenDir(store, mscopedb.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := transform.IngestDirWithOptions(db, logs, work, milliscope.DefaultPlan(), transform.Options{})
		if err == nil {
			err = db.Checkpoint()
		}
		if err != nil {
			b.Fatal(err)
		}
		rows = rep.TotalRows()
		b.StopTimer()
		os.RemoveAll(work)
		os.RemoveAll(store)
		b.StartTimer()
	}
	if rows == 0 {
		b.Fatal("batch ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkIngestWorkers draws the worker-count scaling curve of the one
// ingest engine over the same corpus at --workers of 1, 2 and 4: w=1
// parses one file at a time (BenchmarkIngestBatch's work less the store), w>1
// that many at once. The warehouse is identical at every point
// (TestEngineMatchesOracle). With fewer cores than workers the curve is
// expected flat: extra workers cannot add cycles, so its value is catching
// coordination that makes w=4 slower than w=1. bench/ reports the ratio as
// transform.workers_speedup_x.
func BenchmarkIngestWorkers(b *testing.B) {
	logs := logCorpus(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			var rows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := tmp(b, "workers-work")
				b.StartTimer()
				db := milliscope.OpenDB()
				rep, err := transform.IngestDirWithOptions(db, logs, work, milliscope.DefaultPlan(),
					transform.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				rows = rep.TotalRows()
				b.StopTimer()
				os.RemoveAll(work)
				b.StartTimer()
			}
			if rows == 0 {
				b.Fatal("ingest loaded nothing")
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkIngestStreaming measures the live pipeline over the same corpus:
// tail, parse and append rows in one pass with no intermediate files, plus
// the online detector's bookkeeping — the cost of `mscope live` per row.
// With static files, Start followed by Stop is one complete drain.
func BenchmarkIngestStreaming(b *testing.B) {
	logs := logCorpus(b)
	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := stream.New(stream.Config{LogDir: logs})
		if err != nil {
			b.Fatal(err)
		}
		pipe.Start()
		if err := pipe.Stop(); err != nil {
			b.Fatal(err)
		}
		rows = pipe.Status().Rows
	}
	if rows == 0 {
		b.Fatal("streaming ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkIngestDistributed measures the agent/collector split over the
// same corpus: four per-node agents tail, parse and ship their own tier's
// logs over loopback TCP to one collector feeding the shared streaming
// engine. Against BenchmarkIngestStreaming this prices the wire hop —
// framing, credit flow control, acks — and reports bytes on the wire per
// warehouse row, the number a deployment's network budget cares about.
func BenchmarkIngestDistributed(b *testing.B) {
	logs := logCorpus(b)
	hosts := []string{"apache", "cjdbc", "mysql", "tomcat"}
	var rows, wireB int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := collector.New(collector.Config{
			Network: "tcp", Addr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := col.Start(); err != nil {
			b.Fatal(err)
		}
		agents := make([]*agentd.Agent, 0, len(hosts))
		for _, h := range hosts {
			host := h
			a, err := agentd.New(agentd.Config{
				ID:     "bench-" + host,
				Addr:   col.Addr().String(),
				LogDir: logs,
				Poll:   2 * time.Millisecond,
				Own:    func(name string) bool { return strings.HasPrefix(name, host+"_") },
			})
			if err != nil {
				b.Fatal(err)
			}
			a.Start()
			agents = append(agents, a)
		}
		// A Stop before the agent's first dial would drain nothing: wait
		// until every source is adopted, then drain (tail to EOF, ship,
		// await every ack, Goodbye).
		for col.Status().Opens < int64(2*len(hosts)) {
			time.Sleep(time.Millisecond)
		}
		for _, a := range agents {
			if err := a.Stop(); err != nil {
				b.Fatal(err)
			}
		}
		if err := col.Stop(); err != nil {
			b.Fatal(err)
		}
		rows = col.Pipeline().Status().Rows
		wireB = col.Status().WireRxBytes
	}
	if rows == 0 {
		b.Fatal("distributed ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(wireB)/float64(rows), "wire_B/row")
}
