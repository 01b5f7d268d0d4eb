package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/sysviz"
	"github.com/gt-elba/milliscope/internal/tracegraph"
)

// epochUS anchors relative-seconds axes.
var epochUS = simtime.Epoch.UnixMicro()

// Fig2PointInTime renders Figure 2 from a diagnosis: the Point-in-Time
// response time series whose peak dwarfs the average during the very short
// bottleneck.
func Fig2PointInTime(d *Diagnosis) *report.Figure {
	return pitFigure("fig2", "Point-in-Time response time", d.PIT)
}

// pitFigure plots a Point-in-Time series with its average, maximum and
// their ratio.
func pitFigure(id, title string, pit *metrics.PITResult) *report.Figure {
	return &report.Figure{
		ID:     id,
		Title:  title,
		XLabel: "time (s)",
		YLabel: "response time (ms)",
		Series: []report.Series{
			report.FromDBSeries("PIT max RT", pit.Series, epochUS, 1e-3),
		},
		Notes: []string{
			fmt.Sprintf("avg RT %.2f ms", pit.AvgUS/1000),
			fmt.Sprintf("max RT %.2f ms", pit.MaxUS/1000),
			fmt.Sprintf("peak/avg factor %.1fx", pit.PeakFactor()),
		},
	}
}

// candidate is the series of the resource candidate of the given kind
// sampled on tier, nil when the evidence has none.
func (ev *Evidence) candidate(kind CauseKind, tier string) *mscopedb.Series {
	for _, c := range ev.Candidates {
		if c.Kind == kind && c.Tier == tier {
			return c.Series
		}
	}
	return nil
}

// Fig4DiskUtil renders Figure 4 from a diagnosis: disk utilization per
// tier from the collectl monitors; only the DB tier's disk saturates during
// the VSB. It returns each tier's peak utilization (%), and fails when the
// diagnosis has no disk gauge.
func Fig4DiskUtil(d *Diagnosis) (*report.Figure, map[string]float64, error) {
	fig := &report.Figure{
		ID:     "fig4",
		Title:  "Disk utilization across tiers (collectl)",
		XLabel: "time (s)",
		YLabel: "disk util (%)",
	}
	peaks := make(map[string]float64, len(Tiers))
	for _, tier := range Tiers {
		s := d.Evidence.candidate(CauseDiskIO, tier)
		if s == nil {
			continue
		}
		peaks[tier] = peakOf(s)
		fig.Series = append(fig.Series, report.FromDBSeries(tier, s, epochUS, 1))
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s peak %.1f%%", tier, peaks[tier]))
	}
	if len(peaks) == 0 {
		return nil, nil, fmt.Errorf("core: fig4: the diagnosis has no disk gauge (missing %v)", d.MissingSources)
	}
	return fig, peaks, nil
}

// fig5Stats summarises Figure 5 over every reconstructed request.
type fig5Stats struct {
	// Traces counts the requests joined by ID into causal paths, Valid
	// those that keep happens-before within traceSkew.
	Traces, Valid int
	// DBP99Local is the DB tier's p99 local time (ms); SlowestDBShare the
	// share (%) of the slowest request's response time local to it.
	DBP99Local, SlowestDBShare float64
}

// traceSkew is the clock skew happens-before validation forgives: the
// ±240 µs node clock offsets plus wire latency.
const traceSkew = 1500 * time.Microsecond

// fig5Traces regenerates Figure 5's substance: every request's
// four-timestamp records joined across the tiers by propagated ID into a
// causal path, validated for happens-before, and the per-tier local time
// that points at the server holding the slowest requests.
func fig5Traces(db *mscopedb.DB) (*report.Figure, *fig5Stats, error) {
	traces, err := tracegraph.Build(db, EventTables())
	if err != nil {
		return nil, nil, err
	}
	st := &fig5Stats{Traces: len(traces)}
	dbTier := Tiers[len(Tiers)-1]
	var slowest time.Duration
	for _, tr := range traces {
		if tr.Validate(Tiers, traceSkew) == nil {
			st.Valid++
		}
		if rt := tr.ResponseTime(); rt >= slowest {
			share := 100 * float64(tr.LocalTime()[dbTier]) / float64(rt)
			if rt > slowest || share > st.SlowestDBShare {
				slowest, st.SlowestDBShare = rt, share
			}
		}
	}
	prof := tracegraph.AggregateBreakdown(traces)
	p99 := report.Series{Name: "p99 local time"}
	for i, tier := range Tiers {
		p99.X, p99.Y = append(p99.X, float64(i+1)), append(p99.Y, ms(prof[tier].P99Local))
	}
	st.DBP99Local = p99.Y[len(p99.Y)-1]
	return &report.Figure{
		ID: "fig5", Title: "Tier-local time of the reconstructed requests",
		XLabel: "tier, front to back", YLabel: "local time (ms)",
		Series: []report.Series{p99},
		Notes: []string{
			fmt.Sprintf("%d traces reconstructed, %d keep happens-before", st.Traces, st.Valid),
			fmt.Sprintf("%s p99 local %.2f ms; the slowest request %.1f%% local to it", dbTier, st.DBP99Local, st.SlowestDBShare),
		},
	}, st, nil
}

// Fig6QueueLengths renders Figure 6 from a diagnosis: per-tier
// instantaneous queue lengths from the event monitors, and the cross-tier
// pushback ClassifyWindow found around the first VLRT window.
func Fig6QueueLengths(d *Diagnosis) *report.Figure {
	fig := queueFigure("fig6", "Request queue length per tier (event monitors)", d)
	if len(d.Windows) == 0 {
		fig.Notes = append(fig.Notes, "no VLRT window")
		return fig
	}
	w := d.Windows[0]
	fig.Notes = append(fig.Notes, fmt.Sprintf("VLRT window %.0f ms: grew=%v crossTier=%v",
		ms(w.Window.Duration()), w.Pushback.Grew, w.Pushback.CrossTier))
	return fig
}

// queueFigure plots the diagnosis's per-tier queues with their peaks.
func queueFigure(id, title string, d *Diagnosis) *report.Figure {
	fig := &report.Figure{ID: id, Title: title, XLabel: "time (s)", YLabel: "queued requests"}
	for _, tier := range Tiers {
		if s, ok := d.Evidence.Queues[tier]; ok {
			fig.Series = append(fig.Series, report.FromDBSeries(tier, s, epochUS, 1))
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s peak queue %.0f", tier, peakOf(s)))
		}
	}
	return fig
}

// Fig7Correlation renders Figure 7 from a diagnosis: the DB tier's disk
// utilization against the front-tier queue over the first VLRT window's
// ClassifySlice (the paper's figure zooms into the VSB period). The
// correlation it returns is the one ClassifyWindow ranked the DB disk by,
// so the one its verdict quotes when the disk is named. A trial without a
// VLRT window correlates 0 over no series; one without the DB disk gauge
// fails.
func Fig7Correlation(d *Diagnosis) (*report.Figure, float64, error) {
	dbTier := Tiers[len(Tiers)-1]
	disk := d.Evidence.candidate(CauseDiskIO, dbTier)
	if disk == nil {
		return nil, 0, fmt.Errorf("core: fig7: the diagnosis has no %s disk gauge (missing %v)", dbTier, d.MissingSources)
	}
	fig := &report.Figure{
		ID:     "fig7",
		Title:  "DB disk utilization vs Apache queue length",
		XLabel: "time (s)",
		YLabel: "disk util (%) / queue",
	}
	if len(d.Windows) == 0 {
		fig.Notes = []string{"no VLRT window"}
		return fig, 0, nil
	}
	w := d.Windows[0]
	rank := slices.IndexFunc(w.Causes, func(c analysis.Cause) bool { return c.Name == dbTier+" disk" })
	if rank < 0 {
		return nil, 0, fmt.Errorf("core: fig7: the first VLRT window ranks no %s disk", dbTier)
	}
	front := d.Evidence.Queues[Tiers[0]] // Diagnose requires the front tier's events
	lo, hi := ClassifySlice(w.Window)
	corr := w.Causes[rank].Correlation
	fig.Series = []report.Series{
		report.FromDBSeries(dbTier+" disk util", analysis.SliceSeries(disk, lo, hi), epochUS, 1),
		report.FromDBSeries(Tiers[0]+" queue", analysis.SliceSeries(front, lo, hi), epochUS, 1),
	}
	fig.Notes = []string{
		fmt.Sprintf("lag-adjusted correlation %.3f, candidate %d of %d", corr, rank+1, len(w.Causes)),
		"verdict: " + w.Verdict,
	}
	return fig, corr, nil
}

// Fig8Stats is what Figure 8 derives beyond the diagnosis: per affected
// node (apache, tomcat), the peak CPU (user+sys, %), the peak dirty page
// cache (MB) and the least it holds after that peak — the abrupt drop of
// Figure 8d.
type Fig8Stats struct {
	CPUPeak, DirtyPeakMB, DirtyAfterMB map[string]float64
}

// Fig8DirtyPage renders Figure 8 (a–d) from a diagnosis: the two
// response-time peaks, the differing queue growth, the CPU saturation on
// the affected node, and the abrupt dirty-page drops. It fails when the
// diagnosis lacks the web or app node's CPU or dirty-page gauge.
func Fig8DirtyPage(d *Diagnosis) ([]*report.Figure, *Fig8Stats, error) {
	figA := pitFigure("fig8a", "Point-in-Time response time (dirty-page scenario)", d.PIT)
	figB := queueFigure("fig8b", "Queue length per tier (dirty-page scenario)", d)
	figC := &report.Figure{
		ID: "fig8c", Title: "CPU utilization (collectl)",
		XLabel: "time (s)", YLabel: "cpu util (%)",
	}
	figD := &report.Figure{
		ID: "fig8d", Title: "Dirty page cache size (collectl memory)",
		XLabel: "time (s)", YLabel: "dirty (MB)",
	}
	stats := &Fig8Stats{CPUPeak: map[string]float64{},
		DirtyPeakMB: map[string]float64{}, DirtyAfterMB: map[string]float64{}}
	for _, tier := range []string{"apache", "tomcat"} {
		cpu, dirty := d.Evidence.candidate(CauseCPU, tier), d.Evidence.Dirty[tier]
		if cpu == nil || dirty == nil {
			return nil, nil, fmt.Errorf("core: fig8: the diagnosis has no %s cpu or dirty-page gauge (missing %v)", tier, d.MissingSources)
		}
		stats.CPUPeak[tier] = peakOf(cpu)
		if v := dirty.Values; len(v) > 0 {
			top := slices.Index(v, slices.Max(v))
			stats.DirtyPeakMB[tier], stats.DirtyAfterMB[tier] = v[top]/1024, slices.Min(v[top:])/1024
		}
		figC.Series = append(figC.Series, report.FromDBSeries(tier+" cpu", cpu, epochUS, 1))
		figD.Series = append(figD.Series, report.FromDBSeries(tier+" dirty", dirty, epochUS, 1.0/1024))
		figC.Notes = append(figC.Notes, fmt.Sprintf("%s peak cpu %.1f%%", tier, stats.CPUPeak[tier]))
		figD.Notes = append(figD.Notes, fmt.Sprintf("%s dirty peak %.0f MB, then down to %.1f MB",
			tier, stats.DirtyPeakMB[tier], stats.DirtyAfterMB[tier]))
	}
	figB.Notes = append(figB.Notes, fmt.Sprintf("%d VLRT windows detected", len(d.Windows)))
	for i, w := range d.Windows {
		figB.Notes = append(figB.Notes,
			fmt.Sprintf("peak %d: grew=%v crossTier=%v", i+1, w.Pushback.Grew, w.Pushback.CrossTier))
	}
	return []*report.Figure{figA, figB, figC, figD}, stats, nil
}

// Fig9Stat quantifies event-monitor vs SysViz queue agreement for one tier.
type Fig9Stat struct {
	Correlation float64
	MAE         float64
	Windows     int
}

// Fig9Stats is Figure 9's agreement per tier, and across the tiers the
// weakest correlation and the largest mean absolute error.
type Fig9Stats struct {
	Tiers          map[string]Fig9Stat
	MinCorrelation float64
	MaxMAE         float64
}

// Fig9Accuracy regenerates Figure 9: per-tier queue lengths derived
// independently by the event mScopeMonitors (from warehouse event tables)
// and by SysViz (from the network tap), with similarity statistics.
func Fig9Accuracy(db *mscopedb.DB, msgs []ntier.Message, step time.Duration) ([]*report.Figure, *Fig9Stats, error) {
	txns, err := sysviz.MatchTransactions(msgs)
	if err != nil {
		return nil, nil, err
	}
	stats := &Fig9Stats{Tiers: make(map[string]Fig9Stat, len(Tiers)), MinCorrelation: 1}
	var figs []*report.Figure
	for _, tier := range Tiers {
		tbl, err := db.Table(tier + "_event")
		if err != nil {
			return nil, nil, err
		}
		pts, err := metrics.QueueSeries(tbl, step)
		if err != nil {
			return nil, nil, err
		}
		ev := metrics.PointsToSeries(pts)
		svPts := sysviz.QueueSeries(txns, tier, des.Time(step))
		sv := &mscopedb.Series{}
		for _, p := range svPts {
			// Tap timestamps are virtual; align them to the event-monitor
			// epoch-µs grid.
			us := epochUS + int64(p.At/1000)
			us -= us % step.Microseconds()
			sv.StartMicros = append(sv.StartMicros, us)
			sv.Values = append(sv.Values, float64(p.N))
		}
		dedupeGrid(sv)
		corr, n := analysis.Correlate(ev, sv)
		x, y := analysis.Align(ev, sv)
		mae := 0.0
		for i := range x {
			mae += math.Abs(x[i] - y[i])
		}
		if len(x) > 0 {
			mae /= float64(len(x))
		}
		stats.Tiers[tier] = Fig9Stat{Correlation: corr, MAE: mae, Windows: n}
		stats.MinCorrelation, stats.MaxMAE = min(stats.MinCorrelation, corr), max(stats.MaxMAE, mae)
		figs = append(figs, &report.Figure{
			ID:     "fig9-" + tier,
			Title:  fmt.Sprintf("Queue length at %s: event monitors vs SysViz", tier),
			XLabel: "time (s)",
			YLabel: "queued requests",
			Series: []report.Series{
				report.FromDBSeries("mScope events", ev, epochUS, 1),
				report.FromDBSeries("SysViz", sv, epochUS, 1),
			},
			Notes: []string{
				fmt.Sprintf("corr %.3f, MAE %.2f over %d windows", corr, mae, n),
			},
		})
	}
	last := figs[len(figs)-1]
	last.Notes = append(last.Notes, fmt.Sprintf("across tiers: min corr %.3f, max MAE %.2f",
		stats.MinCorrelation, stats.MaxMAE))
	return figs, stats, nil
}

// dedupeGrid collapses duplicate grid timestamps (snapping can alias two
// samples onto one window), keeping the last value.
func dedupeGrid(s *mscopedb.Series) {
	if len(s.StartMicros) == 0 {
		return
	}
	outT := s.StartMicros[:0]
	outV := s.Values[:0]
	for i := range s.StartMicros {
		n := len(outT)
		if n > 0 && outT[n-1] == s.StartMicros[i] {
			outV[n-1] = s.Values[i]
			continue
		}
		outT = append(outT, s.StartMicros[i])
		outV = append(outV, s.Values[i])
	}
	s.StartMicros = outT
	s.Values = outV
}

// Fig10Stats is Figure 10's per-tier cost of the event monitors, each the
// mean over the sweep's workloads: added CPU (percentage points) and the
// on/off disk-write volume ratio.
type Fig10Stats struct {
	AddedCPU, WriteRatio map[string]float64
}

// Fig10Overhead regenerates Figure 10: per-tier IOWait and disk-write
// amplification, monitors on vs off, across workloads.
func Fig10Overhead(points []OverheadPoint) ([]*report.Figure, *Fig10Stats, error) {
	on, off, err := splitSweep(points)
	if err != nil {
		return nil, nil, err
	}
	iow := &report.Figure{
		ID: "fig10-iowait", Title: "IOWait overhead of event monitors",
		XLabel: "workload (users)", YLabel: "iowait (% of CPU)",
	}
	amp := &report.Figure{
		ID: "fig10-diskwrite", Title: "Disk write amplification of event monitors",
		XLabel: "workload (users)", YLabel: "write volume ratio (on/off)",
	}
	cpu := &report.Figure{
		ID: "fig10-cpu", Title: "Aggregate CPU utilization, monitors on vs off",
		XLabel: "workload (users)", YLabel: "cpu (%)",
	}
	st := &Fig10Stats{AddedCPU: map[string]float64{}, WriteRatio: map[string]float64{}}
	for _, tier := range Tiers {
		var xs, yOn, yOff, ratio, cOn, cOff []float64
		for i := range on {
			xs = append(xs, float64(on[i].Workload))
			yOn = append(yOn, on[i].IOWaitPct[tier])
			yOff = append(yOff, off[i].IOWaitPct[tier])
			cOn = append(cOn, on[i].CPUPct[tier])
			cOff = append(cOff, off[i].CPUPct[tier])
			denom := off[i].DiskWriteKB[tier]
			if denom <= 0 {
				denom = 1
			}
			ratio = append(ratio, on[i].DiskWriteKB[tier]/denom)
		}
		iow.Series = append(iow.Series,
			report.Series{Name: tier + " on", X: xs, Y: yOn},
			report.Series{Name: tier + " off", X: xs, Y: yOff})
		amp.Series = append(amp.Series, report.Series{Name: tier, X: xs, Y: ratio})
		cpu.Series = append(cpu.Series,
			report.Series{Name: tier + " on", X: xs, Y: cOn},
			report.Series{Name: tier + " off", X: xs, Y: cOff})
		st.AddedCPU[tier], st.WriteRatio[tier] = meanDelta(cOn, cOff), mean(ratio)
		iow.Notes = append(iow.Notes, fmt.Sprintf("%s mean added iowait %.2f%%", tier, meanDelta(yOn, yOff)))
		amp.Notes = append(amp.Notes, fmt.Sprintf("%s mean write ratio %.2fx", tier, st.WriteRatio[tier]))
		cpu.Notes = append(cpu.Notes, fmt.Sprintf("%s mean added cpu %.2f%%", tier, st.AddedCPU[tier]))
	}
	return []*report.Figure{iow, amp, cpu}, st, nil
}

// Fig11Stats is Figure 11's cost of the event monitors to the client, as
// means over the sweep's workloads: the throughput change (% of the
// monitors-off throughput, either direction) and the added response time.
type Fig11Stats struct {
	ThroughputDeltaPct float64
	AddedRTms          float64
}

// Fig11ThroughputRT regenerates Figure 11: throughput and response time
// with monitors enabled vs disabled across workloads.
func Fig11ThroughputRT(points []OverheadPoint) ([]*report.Figure, *Fig11Stats, error) {
	on, off, err := splitSweep(points)
	if err != nil {
		return nil, nil, err
	}
	tp := &report.Figure{
		ID: "fig11-throughput", Title: "Throughput, monitors on vs off",
		XLabel: "workload (users)", YLabel: "req/s",
	}
	rt := &report.Figure{
		ID: "fig11-rt", Title: "Mean response time, monitors on vs off",
		XLabel: "workload (users)", YLabel: "mean RT (ms)",
	}
	var xs, tpOn, tpOff, tpDelta, rtOn, rtOff []float64
	for i := range on {
		xs = append(xs, float64(on[i].Workload))
		tpOn = append(tpOn, on[i].Throughput)
		tpOff = append(tpOff, off[i].Throughput)
		if off[i].Throughput > 0 {
			tpDelta = append(tpDelta, math.Abs(on[i].Throughput-off[i].Throughput)/off[i].Throughput*100)
		}
		rtOn = append(rtOn, ms(on[i].MeanRT))
		rtOff = append(rtOff, ms(off[i].MeanRT))
	}
	tp.Series = append(tp.Series,
		report.Series{Name: "monitors on", X: xs, Y: tpOn},
		report.Series{Name: "monitors off", X: xs, Y: tpOff})
	rt.Series = append(rt.Series,
		report.Series{Name: "monitors on", X: xs, Y: rtOn},
		report.Series{Name: "monitors off", X: xs, Y: rtOff})
	st := &Fig11Stats{ThroughputDeltaPct: mean(tpDelta), AddedRTms: meanDelta(rtOn, rtOff)}
	tp.Notes = append(tp.Notes, fmt.Sprintf("mean throughput change %.2f%%", st.ThroughputDeltaPct))
	rt.Notes = append(rt.Notes, fmt.Sprintf("mean added RT %.3f ms", st.AddedRTms))
	return []*report.Figure{tp, rt}, st, nil
}

// splitSweep separates and pairs the on/off points by workload.
func splitSweep(points []OverheadPoint) (on, off []OverheadPoint, err error) {
	for _, p := range points {
		if p.Enabled {
			on = append(on, p)
		} else {
			off = append(off, p)
		}
	}
	sort.Slice(on, func(i, j int) bool { return on[i].Workload < on[j].Workload })
	sort.Slice(off, func(i, j int) bool { return off[i].Workload < off[j].Workload })
	if len(on) == 0 || len(on) != len(off) {
		return nil, nil, fmt.Errorf("core: sweep has %d on / %d off points", len(on), len(off))
	}
	for i := range on {
		if on[i].Workload != off[i].Workload {
			return nil, nil, fmt.Errorf("core: sweep workloads unpaired at %d vs %d",
				on[i].Workload, off[i].Workload)
		}
	}
	return on, off, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDelta(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += a[i] - b[i]
	}
	return s / float64(len(a))
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakOf is a series' largest value, 0 when it has none above 0.
func peakOf(s *mscopedb.Series) float64 {
	p := 0.0
	for _, v := range s.Values {
		if v > p {
			p = v
		}
	}
	return p
}
