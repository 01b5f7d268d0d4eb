package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/eventmon"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/sysviz"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// Claim is one statement of the paper's evaluation held against this
// reproduction: the value measured and the bound it must meet.
type Claim struct {
	Figure string
	// Paper is the paper's statement, or the design decision's.
	Paper, Metric string
	Value         float64
	Unit          string
	// Op is "≥", "≤" or "=": Value Op Bound must hold.
	Op    string
	Bound float64
}

// Met reports whether the value is within its bound.
func (c Claim) Met() bool {
	switch c.Op {
	case "≥":
		return c.Value >= c.Bound
	case "≤":
		return c.Value <= c.Bound
	}
	return c.Value == c.Bound
}

// Evaluation is the paper's evaluation reproduced: every figure in print
// order, then every claim.
type Evaluation struct {
	Figures []*report.Figure
	Claims  []Claim
}

// Missed returns the claims whose value misses its bound.
func (e *Evaluation) Missed() []Claim {
	var out []Claim
	for _, c := range e.Claims {
		if !c.Met() {
			out = append(out, c)
		}
	}
	return out
}

// WriteClaims writes the claims as a markdown table, one row per claim.
func (e *Evaluation) WriteClaims(w io.Writer) error {
	var b strings.Builder
	b.WriteString("| figure | the paper | measured | value | bound | |\n|---|---|---|---|---|---|\n")
	for _, c := range e.Claims {
		value, verdict := formatValue(c.Value), "ok"
		if c.Unit != "" {
			value += " " + c.Unit
		}
		if !c.Met() {
			verdict = "MISSED"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s %s | %s |\n",
			c.Figure, c.Paper, c.Metric, value, c.Op, formatValue(c.Bound), verdict)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue prints a value to four significant digits.
func formatValue(v float64) string { return fmt.Sprintf("%.4g", v) }

// oneIf is a yes/no finding as a value: 1 for yes.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// evaluator carries what one part of the evaluation leaves for a later
// one: scenario A's warehouse and logs, and the Figure 9 tap capture.
type evaluator struct {
	Evaluation
	dir   string
	dbA   *mscopedb.DB
	logsA string
	msgs  []ntier.Message
}

// Evaluate runs each trial of the paper's evaluation once under dir and
// derives every figure and claim from it: scenarios A and B at their
// catalogue configs, the Figure 9 accuracy trial at workload 8000 for 15 s,
// the Figures 10–11 sweep over 1000–8000 users at 6 s a trial, and the
// ablations of DESIGN.md §1. The bounds hold at these lengths.
func Evaluate(dir string) (*Evaluation, error) {
	e := &evaluator{dir: dir}
	for _, part := range []func() error{e.scenarioA, e.scenarioB, e.accuracy, e.overhead,
		e.ablateSampling, e.ablateSyncLogging, e.ablateMinimalSchema, e.ablateSchemaTyping, e.ablateNesting} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	ev := e.Evaluation // not the trials' warehouse and capture
	return &ev, nil
}

// trial runs a trial with its logs under dir/name and ingests them.
func (e *evaluator) trial(name string, cfg func(logDir string) ExperimentConfig) (*ExperimentResult, *mscopedb.DB, error) {
	res, err := RunExperiment(cfg(filepath.Join(e.dir, name, "logs")))
	if err != nil {
		return nil, nil, err
	}
	db, _, err := res.Ingest(filepath.Join(e.dir, name, "work"))
	return res, db, err
}

// scenarioA is Section V-A, the DB log flush: Figures 2, 4, 5, 6 and 7.
func (e *evaluator) scenarioA() error {
	res, db, err := e.trial("dbio", ScenarioDBIO)
	if err != nil {
		return err
	}
	e.dbA, e.logsA = db, res.Config.LogDir
	d, err := Diagnose(db, DefaultWindow)
	if err != nil {
		return err
	}
	if len(d.Windows) == 0 {
		return fmt.Errorf("core: scenario A: no VLRT window")
	}
	fig4, disk, err := Fig4DiskUtil(d)
	if err != nil {
		return err
	}
	fig5, tr, err := fig5Traces(db)
	if err != nil {
		return err
	}
	fig7, corr, err := Fig7Correlation(d)
	if err != nil {
		return err
	}
	e.Figures = append(e.Figures, Fig2PointInTime(d), fig4, fig5, Fig6QueueLengths(d), fig7)
	pit, first := d.PIT, d.Windows[0]
	e.Claims = append(e.Claims,
		Claim{"Fig 2", "the PIT peak is more than twenty times the average", "PIT peak / average RT", pit.PeakFactor(), "×", "≥", 20},
		Claim{"Fig 2", "the average response time stays low", "average RT", pit.AvgUS / 1000, "ms", "≤", 20},
		Claim{"Fig 2", "the peak is sub-second", "slowest request", pit.MaxUS / 1000, "ms", "≤", 1000},
		Claim{"Fig 4", "the DB tier's disk reaches full utilization", "mysql disk peak", disk["mysql"], "%", "≥", 95})
	for _, tier := range Tiers[:len(Tiers)-1] {
		e.Claims = append(e.Claims, Claim{"Fig 4", "the other tiers' disks stay low", tier + " disk peak", disk[tier], "%", "≤", 60})
	}
	e.Claims = append(e.Claims,
		Claim{"Fig 5", "every request's boundary timestamps join by ID into one causal path", "traces (= completed requests)", float64(tr.Traces), "", "=", float64(len(res.Driver.Completed))},
		Claim{"Fig 5", "each path keeps happens-before across the tiers", "traces within 1.5 ms skew", 100 * float64(tr.Valid) / float64(max(tr.Traces, 1)), "%", "≥", 100},
		Claim{"Fig 5", "the per-tier breakdown names the server causing the VLRT requests", "slowest request local to mysql", tr.SlowestDBShare, "%", "≥", 50},
		Claim{"Fig 5", "the VSB touches only a few requests", "mysql p99 local time", tr.DBP99Local, "ms", "≤", 20},
		Claim{"Fig 6", "the bottleneck is very short", "first VLRT window", ms(first.Window.Duration()), "ms", "≤", 1000},
		Claim{"Fig 6", "the DB queue rise propagates upstream", "cross-tier pushback (1 = yes)", oneIf(first.Pushback.CrossTier), "", "=", 1},
		Claim{"Fig 6", "the DB queue rise propagates upstream", "tiers whose queue grew", float64(len(first.Pushback.Grew)), "", "≥", 3},
		Claim{"Fig 7", "DB disk utilization and the Apache queue correlate highly", "lag-adjusted r", corr, "", "≥", 0.7})
	return nil
}

// scenarioB is Section V-B, dirty-page recycling on the web and then the
// app node: Figure 8a–d.
func (e *evaluator) scenarioB() error {
	_, db, err := e.trial("dirtypage", ScenarioDirtyPage)
	if err != nil {
		return err
	}
	d, err := Diagnose(db, DefaultWindow)
	if err != nil {
		return err
	}
	figs, st, err := Fig8DirtyPage(d)
	if err != nil {
		return err
	}
	e.Figures = append(e.Figures, figs...)
	split := len(d.Windows) == 2 && !d.Windows[0].Pushback.CrossTier && d.Windows[1].Pushback.CrossTier
	e.Claims = append(e.Claims,
		Claim{"Fig 8", "two PIT peaks", "VLRT windows", float64(len(d.Windows)), "", "=", 2},
		Claim{"Fig 8", "each peak dwarfs the average", "PIT peak / average RT", d.PIT.PeakFactor(), "×", "≥", vlrtFactor},
		Claim{"Fig 8", "the average stays low (under 20 ms on the paper's testbed)", "average RT", d.PIT.AvgUS / 1000, "ms", "≤", 50},
		Claim{"Fig 8", "peak 1 grows the Apache queue only, peak 2 Apache's and Tomcat's", "peak 1 single-tier, peak 2 cross-tier (1 = yes)", oneIf(split), "", "=", 1})
	for _, node := range []string{"apache", "tomcat"} {
		e.Claims = append(e.Claims,
			Claim{"Fig 8", "the recycling node's CPU saturates", node + " CPU peak", st.CPUPeak[node], "%", "≥", 80},
			Claim{"Fig 8", "dirty pages build up", node + " dirty-page peak", st.DirtyPeakMB[node], "MB", "≥", 250},
			Claim{"Fig 8", "then drop abruptly", node + " dirty pages after the peak", st.DirtyAfterMB[node], "MB", "≤", 25})
	}
	return nil
}

// accuracy is the Figure 9 validation against SysViz at workload 8000.
func (e *evaluator) accuracy() error {
	res, db, err := e.trial("accuracy", func(logDir string) ExperimentConfig {
		return ScenarioAccuracy(logDir, 8000, 15*time.Second)
	})
	if err != nil {
		return err
	}
	e.msgs = res.Capture.Messages()
	figs, st, err := Fig9Accuracy(db, e.msgs, 2*DefaultWindow)
	if err != nil {
		return err
	}
	e.Figures = append(e.Figures, figs...)
	e.Claims = append(e.Claims,
		Claim{"Fig 9", "event-monitor and SysViz queue lengths are very similar at every tier", "weakest tier correlation", st.MinCorrelation, "", "≥", 0.95},
		Claim{"Fig 9", "event-monitor and SysViz queue lengths are very similar at every tier", "largest tier MAE", st.MaxMAE, "requests", "≤", 1})
	return nil
}

// overhead is the Figures 10–11 sweep, monitors on against off.
func (e *evaluator) overhead() error {
	points, err := MeasureOverheadSweep([]int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}, 6*time.Second,
		func(name string) string { return filepath.Join(e.dir, "overhead", name) })
	if err != nil {
		return err
	}
	figs10, st10, err := Fig10Overhead(points)
	if err != nil {
		return err
	}
	figs11, st11, err := Fig11ThroughputRT(points)
	if err != nil {
		return err
	}
	e.Figures = append(append(e.Figures, figs10...), figs11...)
	for _, tier := range Tiers {
		paper, bound := "each monitor but Tomcat's adds about 1% CPU", 1.5
		if tier == "tomcat" {
			paper, bound = "the Tomcat monitor adds about 3% CPU (an extra logging thread)", 4
		}
		e.Claims = append(e.Claims, Claim{"Fig 10", paper, tier + " added CPU", st10.AddedCPU[tier], "points", "≤", bound})
	}
	for _, tier := range Tiers {
		e.Claims = append(e.Claims, Claim{"Fig 10", "the monitors' logs up to double the disk writes", tier + " write volume on/off", st10.WriteRatio[tier], "×", "≤", 4})
	}
	e.Claims = append(e.Claims,
		Claim{"Fig 11", "throughput is almost unchanged", "mean throughput change", st11.ThroughputDeltaPct, "%", "≤", 2},
		Claim{"Fig 11", "response time rises by about 2 ms", "mean added RT", st11.AddedRTms, "ms", "≤", 2})
	return nil
}

// ablateSampling is decision 1, trace every request: a monitor reporting
// each second's mean response time flattens the VSB that 50 ms windows of
// the per-request maximum show, in scenario A.
func (e *evaluator) ablateSampling() error {
	tbl, err := e.dbA.Table(Tiers[0] + "_event")
	if err != nil {
		return err
	}
	rows, err := tbl.Select().Rows()
	if err != nil {
		return err
	}
	defer rows.Release()
	full, err := rows.WindowAgg("ud", DefaultWindow, "rt_us", mscopedb.AggMax)
	if err != nil {
		return err
	}
	coarse, err := rows.WindowAgg("ud", time.Second, "rt_us", mscopedb.AggAvg)
	if err != nil {
		return err
	}
	e.Claims = append(e.Claims,
		Claim{"Ablation 1", "full tracing keeps the VSB", "50 ms max RT, peak / mean", peakOverMean(full), "×", "≥", vlrtFactor},
		Claim{"Ablation 1", "1 s sampling misses it", "1 s mean RT, peak / mean", peakOverMean(coarse), "×", "≤", 2})
	return nil
}

// peakOverMean is a series' largest value over the mean of its positive
// values; 0 when it has none.
func peakOverMean(s *mscopedb.Series) float64 {
	sum, peak, n := 0.0, 0.0, 0.0
	for _, v := range s.Values {
		if v > 0 {
			sum, peak, n = sum+v, math.Max(peak, v), n+1
		}
	}
	if n == 0 {
		return 0
	}
	return peak / (sum / n)
}

// ablationTrial is a 4 s trial without a fault, its event monitors
// configured as given, logging under dir/ablation-name.
func (e *evaluator) ablationTrial(name string, users int, seed int64, mon eventmon.Config) (*ExperimentResult, error) {
	cfg := ntier.DefaultConfig()
	cfg.Users, cfg.Duration, cfg.Seed = users, 4*time.Second, seed
	return RunExperiment(ExperimentConfig{Name: "ablation-" + name, Ntier: cfg,
		EventMonitors: true, EventConfig: &mon, LogDir: filepath.Join(e.dir, "ablation-"+name)})
}

// ablateSyncLogging is decision 2, leverage buffered native logging: at
// the app tier's saturation point (workload 12000) a 15× per-record cost,
// a synchronous write-and-flush path, pushes the nodes over the edge.
func (e *evaluator) ablateSyncLogging() error {
	async, err := e.ablationTrial("async", 12000, 77, eventmon.DefaultConfig())
	if err != nil {
		return err
	}
	slow := eventmon.DefaultConfig()
	for _, o := range []*eventmon.Overhead{&slow.Apache, &slow.Tomcat, &slow.CJDBC, &slow.MySQL} {
		o.CPUPerRecord *= 15
	}
	sync, err := e.ablationTrial("sync", 12000, 77, slow)
	if err != nil {
		return err
	}
	e.Claims = append(e.Claims,
		Claim{"Ablation 2", "buffered logging keeps the app tier healthy", "buffered mean RT", ms(async.Stats.MeanRT), "ms", "≤", 20},
		Claim{"Ablation 2", "synchronous logging would not", "synchronous mean RT", ms(sync.Stats.MeanRT), "ms", "≥", 100},
		Claim{"Ablation 2", "synchronous logging would not", "added RT", ms(sync.Stats.MeanRT - async.Stats.MeanRT), "ms", "≥", 100})
	return nil
}

// ablateMinimalSchema is decision 3, four timestamps per visit: verbose
// per-phase tracing (6 extra records a visit) multiplies the log volume.
func (e *evaluator) ablateMinimalSchema() error {
	var rt [2]time.Duration
	var kb [2]float64
	for i, phases := range []int{0, 6} {
		mon := eventmon.DefaultConfig()
		mon.PhaseDetail = phases
		res, err := e.ablationTrial(fmt.Sprintf("schema-phases%d", phases), 2000, 99, mon)
		if err != nil {
			return err
		}
		rt[i] = res.Stats.MeanRT
		for _, s := range res.Sys.Servers() {
			_, extra := s.LogVolumeKB()
			kb[i] += extra
		}
	}
	e.Claims = append(e.Claims,
		Claim{"Ablation 3", "four timestamps a visit keep the monitor logs small", "minimal-schema log volume", kb[0], "KB", "≤", 2000},
		Claim{"Ablation 3", "per-phase tracing writes far more", "verbose log volume", kb[1], "KB", "≥", 3000},
		Claim{"Ablation 3", "per-phase tracing writes far more", "verbose / minimal volume", kb[1] / kb[0], "×", "≥", 2},
		Claim{"Ablation 3", "a cost in volume, not in response time", "verbose added mean RT", ms(rt[1] - rt[0]), "ms", "≤", 2})
	return nil
}

// ablateSchemaTyping is decision 4, bottom-up narrowest-type inference:
// scenario A's MySQL event table loaded as inferred, and all-string.
func (e *evaluator) ablateSchemaTyping() error {
	dir := filepath.Join(e.dir, "ablation-typing")
	if _, err := transform.IngestDirWithOptions(mscopedb.Open(), e.logsA, dir, transform.DefaultPlan(),
		transform.Options{Materialize: true}); err != nil {
		return err
	}
	csv, typed := filepath.Join(dir, "mysql_event.csv"), filepath.Join(dir, "mysql_event.schema.json")
	sch, _, err := xmlcsv.ReadSchema(typed)
	if err != nil {
		return err
	}
	for i := range sch.Columns {
		sch.Columns[i].Type = "string"
	}
	data, err := json.Marshal(sch)
	if err != nil {
		return err
	}
	strs := filepath.Join(dir, "mysql_event.strings.json")
	if err := os.WriteFile(strs, data, 0o644); err != nil {
		return err
	}
	var perRow [2]float64
	for i, schema := range []string{typed, strs} {
		tbl, err := xmlcsv.LoadFile(csv, schema)
		if err != nil {
			return err
		}
		perRow[i] = float64(tbl.SizeBytes()) / float64(max(tbl.Rows(), 1))
	}
	e.Claims = append(e.Claims,
		Claim{"Ablation 4", "inferred narrow types keep the warehouse small", "typed mysql_event", perRow[0], "B/row", "≤", 300},
		Claim{"Ablation 4", "all-string columns would not", "all-string mysql_event", perRow[1], "B/row", "≥", 400},
		Claim{"Ablation 4", "all-string columns would not", "all-string / typed", perRow[1] / perRow[0], "×", "≥", 1.5})
	return nil
}

// ablateNesting is decision 5, propagate request IDs: SysViz's
// timing-based nesting over the Figure 9 capture attributes only part of
// the causal links correctly, where ID joins are exact (Figure 5).
func (e *evaluator) ablateNesting() error {
	txns, err := sysviz.MatchTransactions(e.msgs)
	if err != nil {
		return err
	}
	sysviz.BuildTraces(txns)
	correct, total := sysviz.PathAccuracy(txns)
	e.Claims = append(e.Claims, Claim{"Ablation 5", "timing-based nesting misattributes causal links under load",
		"SysViz links correct at workload 8000", 100 * float64(correct) / float64(max(total, 1)), "%", "≤", 90})
	return nil
}
