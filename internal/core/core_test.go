package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

// runScenario executes and ingests a scenario config.
func runScenario(t *testing.T, cfg ExperimentConfig) (*ExperimentResult, *mscopedb.DB) {
	t.Helper()
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	db, rep, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if rep.TotalRows() == 0 {
		t.Fatal("ingest loaded no rows")
	}
	return res, db
}

// TestScenarioDBIO asserts the Section V-A diagnosis end to end: the DB
// redo-log flush produces a >10x response-time peak (Fig 2), DB-only disk
// saturation (Fig 4), cross-tier pushback (Fig 6), and a strong DB-disk /
// Apache-queue correlation (Fig 7) that ranks the DB disk first.
func TestScenarioDBIO(t *testing.T) {
	cfg := ScenarioDBIO(t.TempDir())
	_, db := runScenario(t, cfg)
	d, err := Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// Fig 2: the PIT peak dwarfs the average.
	if pit := d.PIT; pit.PeakFactor() < 10 {
		t.Fatalf("peak factor %.1f, want >10 (paper: >20x)", pit.PeakFactor())
	} else if pit.AvgUS > 50_000 {
		t.Fatalf("avg RT %.1fms implausibly high for healthy baseline", pit.AvgUS/1000)
	}
	var buf bytes.Buffer
	if err := Fig2PointInTime(d).Render(&buf, 72, 14); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}

	// Fig 4: only the DB tier's disk saturates.
	_, diskPeaks, err := Fig4DiskUtil(d)
	if err != nil {
		t.Fatal(err)
	}
	if p := diskPeaks["mysql"]; p < 95 {
		t.Fatalf("mysql disk peaked at %.1f%%, want saturation", p)
	}
	for _, tier := range []string{"tomcat", "cjdbc"} {
		if p := diskPeaks[tier]; p > 60 {
			t.Fatalf("%s disk peaked at %.1f%%, should stay low", tier, p)
		}
	}

	// Fig 6: cross-tier pushback during the first VLRT window.
	if len(d.Windows) == 0 {
		t.Fatal("no VLRT windows detected")
	}
	pb := d.Windows[0].Pushback
	if !pb.CrossTier {
		t.Fatalf("no cross-tier pushback: %+v", pb)
	}
	// The paper's Figure 6: the DB queue rise propagates all the way up.
	if len(pb.Grew) < 3 {
		t.Fatalf("only %v grew; expected system-wide queue amplification", pb.Grew)
	}

	// Fig 7: over the bottleneck neighbourhood the DB disk correlates
	// strongly with the Apache queue, and the figure's r is the one the
	// verdict quotes: one number for the DB disk, not one per reader.
	fig7, corr, err := Fig7Correlation(d)
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.5 {
		t.Fatalf("mysql-disk/apache-queue correlation %.3f, want high", corr)
	}
	v := d.Windows[0].Verdict
	if want := fmt.Sprintf("disk-io at mysql (r=%.2f,", corr); !strings.HasPrefix(v, want) {
		t.Fatalf("Fig 7 r = %.4f, verdict %q", corr, v)
	}
	if !slices.Contains(fig7.Notes, "verdict: "+v) {
		t.Fatalf("Fig 7 notes %q do not quote the verdict %q", fig7.Notes, v)
	}

	// The ranking puts the DB disk first among every candidate.
	if causes := d.Windows[0].Causes; len(causes) == 0 || causes[0].Name != "mysql disk" {
		t.Fatalf("root cause ranking: %+v", causes)
	}
}

// TestScenarioDirtyPage asserts the Section V-B diagnosis: two VLRT peaks;
// the first grows only Apache's queue, the second also Tomcat's; CPU
// saturates on the affected node; the dirty-page cache drops abruptly.
func TestScenarioDirtyPage(t *testing.T) {
	cfg := ScenarioDirtyPage(t.TempDir())
	_, db := runScenario(t, cfg)
	d, err := Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	figs, _, err := Fig8DirtyPage(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("%d subfigures", len(figs))
	}
	if d.PIT.PeakFactor() < 10 {
		t.Fatalf("peak factor %.1f", d.PIT.PeakFactor())
	}
	if len(d.Windows) != 2 {
		t.Fatalf("%d VLRT windows, want 2 (two dirty-page episodes)", len(d.Windows))
	}
	// Two look-alike peaks, two root causes: recycling on the web node,
	// then on the app node.
	for i, node := range []string{"apache", "tomcat"} {
		if w := d.Windows[i]; w.Kind != CauseDirtyPage || w.Node != node {
			t.Fatalf("peak %d: %s, want dirty-page recycling at %s", i+1, w.Verdict, node)
		}
	}
	// Peak 1 (apache episode): apache queue grows, tomcat's does not.
	pb1 := d.Windows[0].Pushback
	if !contains(pb1.Grew, "apache") {
		t.Fatalf("peak 1 did not grow apache queue: %+v", pb1)
	}
	if contains(pb1.Grew, "tomcat") {
		t.Fatalf("peak 1 grew tomcat queue: %+v (should be apache-only)", pb1)
	}
	// Peak 2 (tomcat episode): both apache and tomcat queues grow.
	pb2 := d.Windows[1].Pushback
	if !contains(pb2.Grew, "apache") || !contains(pb2.Grew, "tomcat") {
		t.Fatalf("peak 2 pushback: %+v (want apache+tomcat)", pb2)
	}
	if !pb2.CrossTier {
		t.Fatalf("peak 2 not cross-tier: %+v", pb2)
	}

	// Fig 8c: CPU saturation on the affected nodes during their episodes.
	apacheCPU := d.Evidence.candidate(CauseCPU, "apache")
	w1 := d.Windows[0].Window
	peakIn := func(s *mscopedb.Series, w analysis.Window, padUS int64) float64 {
		p := 0.0
		for _, v := range analysis.SliceSeries(s, w.StartMicros-padUS, w.EndMicros+padUS).Values {
			if v > p {
				p = v
			}
		}
		return p
	}
	pad := (600 * time.Millisecond).Microseconds()
	if p := peakIn(apacheCPU, w1, pad); p < 80 {
		t.Fatalf("apache CPU peaked at %.1f%% during episode 1, want saturation", p)
	}

	// Fig 8d: apache dirty cache rises above 250MB then collapses.
	apacheDirty := d.Evidence.Dirty["apache"]
	maxDirty, endDirty := 0.0, 0.0
	for i, v := range apacheDirty.Values {
		if v > maxDirty {
			maxDirty = v
		}
		if i == len(apacheDirty.Values)-1 {
			endDirty = v
		}
	}
	if maxDirty < 250*1024 {
		t.Fatalf("apache dirty peaked at %.0fKB, want >250MB burst", maxDirty)
	}
	if endDirty > maxDirty/5 {
		t.Fatalf("dirty cache did not collapse: end %.0fKB vs peak %.0fKB", endDirty, maxDirty)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestScenarioAccuracy asserts Figure 9: SysViz and the event monitors
// derive very similar queue lengths for every tier.
func TestScenarioAccuracy(t *testing.T) {
	cfg := ScenarioAccuracy(t.TempDir(), 2000, 8*time.Second)
	res, db := runScenario(t, cfg)
	figs, stats, err := Fig9Accuracy(db, res.Capture.Messages(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("%d tier figures", len(figs))
	}
	for tier, st := range stats.Tiers {
		if st.Windows < 20 {
			t.Fatalf("%s: only %d overlapping windows", tier, st.Windows)
		}
		// Agreement criterion: either the curves track (corr) or they
		// differ by well under one request on average (MAE) — lightly
		// loaded tiers sit at queue 0–1 where correlation is pure noise.
		if st.Correlation < 0.7 && st.MAE > 0.75 {
			t.Fatalf("%s: corr %.3f / MAE %.2f, want close agreement", tier, st.Correlation, st.MAE)
		}
		if st.MAE > 3 {
			t.Fatalf("%s: MAE %.2f requests, want small", tier, st.MAE)
		}
	}
}

// TestOverheadSweep asserts Figures 10/11: monitors leave throughput
// essentially unchanged, add small latency, and roughly double log write
// volume.
func TestOverheadSweep(t *testing.T) {
	base := t.TempDir()
	points, err := MeasureOverheadSweep([]int{1000, 2000}, 4*time.Second,
		func(name string) string { return filepath.Join(base, name) })
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	figs10, _, err := Fig10Overhead(points)
	if err != nil {
		t.Fatal(err)
	}
	figs11, _, err := Fig11ThroughputRT(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs10) != 3 || len(figs11) != 2 {
		t.Fatalf("figure counts %d %d", len(figs10), len(figs11))
	}
	on, off, err := splitSweep(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range on {
		// Throughput indistinguishable (paper: "almost no difference").
		d := on[i].Throughput - off[i].Throughput
		if d < 0 {
			d = -d
		}
		if off[i].Throughput > 0 && d/off[i].Throughput > 0.05 {
			t.Fatalf("wl %d: throughput %v vs %v differs >5%%",
				on[i].Workload, on[i].Throughput, off[i].Throughput)
		}
		// Added latency small (paper: ~2ms).
		added := on[i].MeanRT - off[i].MeanRT
		if added > 10*time.Millisecond || added < -2*time.Millisecond {
			t.Fatalf("wl %d: added RT %v outside plausible band", on[i].Workload, added)
		}
		// Log volume roughly doubles on instrumented nodes.
		for _, tier := range Tiers {
			baseKB := on[i].BaseLogKB[tier]
			extraKB := on[i].ExtraLogKB[tier]
			if baseKB <= 0 || extraKB <= 0 {
				t.Fatalf("wl %d %s: log volumes base=%v extra=%v", on[i].Workload, tier, baseKB, extraKB)
			}
			ratio := (baseKB + extraKB) / baseKB
			if ratio < 1.3 || ratio > 4 {
				t.Fatalf("wl %d %s: log amplification %.2fx outside band", on[i].Workload, tier, ratio)
			}
		}
	}
}

// TestTraceReconstructionEndToEnd: every request reconstructed from the
// ingested event tables has a complete, happens-before-consistent causal
// path (Figure 5), including during the bottleneck window.
func TestTraceReconstructionEndToEnd(t *testing.T) {
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 80
	cfg.Ntier.Duration = 8 * time.Second
	res, db := runScenario(t, cfg)

	tables := make([]string, len(Tiers))
	for i, tier := range Tiers {
		tables[i] = tier + "_event"
	}
	traces, err := tracegraph.Build(db, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != res.Stats.Requests+len(res.Driver.Completed)-res.Stats.Requests {
		// Every completed request (including warmup) has a trace.
		if len(traces) != len(res.Driver.Completed) {
			t.Fatalf("%d traces for %d completed requests", len(traces), len(res.Driver.Completed))
		}
	}
	// Clock skew between nodes is bounded by the configured offsets
	// (±240µs) plus wire latency; 1.5ms tolerance covers it.
	skew := 1500 * time.Microsecond
	validated := 0
	var slowest *tracegraph.Trace
	for _, tr := range traces {
		if err := tr.Validate(Tiers, skew); err != nil {
			t.Fatalf("trace validation: %v", err)
		}
		validated++
		if slowest == nil || tr.ResponseTime() > slowest.ResponseTime() {
			slowest = tr
		}
	}
	if validated == 0 {
		t.Fatal("no traces validated")
	}
	// The slowest request's latency must be dominated by MySQL-local time
	// (it was stuck behind the disk flush).
	local := slowest.LocalTime()
	if local["mysql"] < slowest.ResponseTime()/2 {
		t.Fatalf("slowest request (%v) not dominated by mysql (%v): %v",
			slowest.ResponseTime(), local["mysql"], local)
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := ExperimentConfig{Name: "x", Ntier: ntier.DefaultConfig(), EventMonitors: true}
	if _, err := RunExperiment(cfg); err == nil {
		t.Fatal("monitors without log dir accepted")
	}
}

func TestIngestRecordsMetadata(t *testing.T) {
	cfg := ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 30
	cfg.Ntier.Duration = 2 * time.Second
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := db.Table("mscope_nodes")
	if err != nil {
		t.Fatal(err)
	}
	if nodes.Rows() != 4 {
		t.Fatalf("node metadata rows %d", nodes.Rows())
	}
	mons, err := db.Table("mscope_monitors")
	if err != nil {
		t.Fatal(err)
	}
	// 4 event monitors + 2 resource kinds * 4 nodes.
	if mons.Rows() != 12 {
		t.Fatalf("monitor metadata rows %d", mons.Rows())
	}
	_ = transform.DefaultPlan() // referenced to keep the dependency explicit
}
