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

// Fig2PointInTime regenerates Figure 2: the Point-in-Time response time
// series whose peak dwarfs the average during the very short bottleneck.
func Fig2PointInTime(db *mscopedb.DB, window time.Duration) (*report.Figure, *metrics.PITResult, error) {
	tbl, err := db.Table(Tiers[0] + "_event")
	if err != nil {
		return nil, nil, err
	}
	p, err := metrics.PointInTimeRT(tbl, window)
	if err != nil {
		return nil, nil, err
	}
	pit := p.Result(math.MinInt64, math.MaxInt64)
	fig := &report.Figure{
		ID:     "fig2",
		Title:  "Point-in-Time response time",
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
	return fig, pit, nil
}

// resourceSeriesForTier windows one column of a tier's collectl CSV table.
func resourceSeriesForTier(db *mscopedb.DB, tier, col string, window time.Duration, fn mscopedb.AggFn) (*mscopedb.Series, error) {
	tbl, err := db.Table(tier + "_collectlcsv")
	if err != nil {
		return nil, err
	}
	return metrics.ResourceSeries(tbl, col, window, fn)
}

// queueSeriesForTier derives a tier's queue-length series from its event
// table.
func queueSeriesForTier(db *mscopedb.DB, tier string, step time.Duration) (*mscopedb.Series, error) {
	tbl, err := db.Table(tier + "_event")
	if err != nil {
		return nil, err
	}
	pts, err := metrics.QueueSeries(tbl, step)
	if err != nil {
		return nil, err
	}
	return metrics.PointsToSeries(pts), nil
}

// Fig4DiskUtil regenerates Figure 4: disk utilization per tier from the
// collectl monitors; only the DB tier's disk saturates during the VSB. It
// returns each tier's peak utilization (%).
func Fig4DiskUtil(db *mscopedb.DB, window time.Duration) (*report.Figure, map[string]float64, error) {
	fig := &report.Figure{
		ID:     "fig4",
		Title:  "Disk utilization across tiers (collectl)",
		XLabel: "time (s)",
		YLabel: "disk util (%)",
	}
	peaks := make(map[string]float64, len(Tiers))
	for _, tier := range Tiers {
		s, err := resourceSeriesForTier(db, tier, "dsk_util", window, mscopedb.AggMax)
		if err != nil {
			return nil, nil, err
		}
		peaks[tier] = peakOf(s)
		fig.Series = append(fig.Series, report.FromDBSeries(tier, s, epochUS, 1))
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s peak %.1f%%", tier, peaks[tier]))
	}
	return fig, peaks, nil
}

// Fig5Stats summarises Figure 5 over every reconstructed request.
type Fig5Stats struct {
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

// Fig5Traces regenerates Figure 5's substance: every request's
// four-timestamp records joined across the tiers by propagated ID into a
// causal path, validated for happens-before, and the per-tier local time
// that points at the server holding the slowest requests.
func Fig5Traces(db *mscopedb.DB) (*report.Figure, *Fig5Stats, error) {
	traces, err := tracegraph.Build(db, EventTables())
	if err != nil {
		return nil, nil, err
	}
	st := &Fig5Stats{Traces: len(traces)}
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

// Fig6Stats is Figure 6's evidence: the per-tier queues, and the pushback
// over the first VLRT window widened by PushbackLeadIn, as ClassifyWindow
// reads it.
type Fig6Stats struct {
	Queues map[string]*mscopedb.Series
	// Window is the first VLRT window; zero when the trial has none.
	Window   analysis.Window
	Pushback analysis.PushbackResult
}

// Fig6QueueLengths regenerates Figure 6: per-tier instantaneous queue
// lengths from the event monitors, exhibiting cross-tier pushback.
func Fig6QueueLengths(db *mscopedb.DB, step time.Duration) (*report.Figure, *Fig6Stats, error) {
	fig := &report.Figure{
		ID:     "fig6",
		Title:  "Request queue length per tier (event monitors)",
		XLabel: "time (s)",
		YLabel: "queued requests",
	}
	st := &Fig6Stats{Queues: make(map[string]*mscopedb.Series, len(Tiers))}
	for _, tier := range Tiers {
		s, err := queueSeriesForTier(db, tier, step)
		if err != nil {
			return nil, nil, err
		}
		st.Queues[tier] = s
		fig.Series = append(fig.Series, report.FromDBSeries(tier, s, epochUS, 1))
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s peak queue %.0f", tier, peakOf(s)))
	}
	_, eps, err := frontEpisodes(db, step)
	if err != nil {
		return nil, nil, err
	}
	if len(eps) == 0 {
		fig.Notes = append(fig.Notes, "no VLRT window")
		return fig, st, nil
	}
	st.Window = eps[0]
	w := eps[0]
	w.StartMicros -= PushbackLeadIn.Microseconds()
	st.Pushback = analysis.DetectPushback(st.Queues, Tiers, w, PushbackGrowth)
	fig.Notes = append(fig.Notes, fmt.Sprintf("VLRT window %.0f ms: grew=%v crossTier=%v",
		ms(st.Window.Duration()), st.Pushback.Grew, st.Pushback.CrossTier))
	return fig, st, nil
}

// Fig7Correlation regenerates Figure 7: the DB tier's disk utilization
// against the Apache queue length over the first VLRT window ±
// ClassifyPad (the paper's figure zooms into the VSB period), whose high
// correlation identifies disk IO as the very short bottleneck. A trial
// without a VLRT window correlates 0 over no series.
func Fig7Correlation(db *mscopedb.DB, window time.Duration) (*report.Figure, float64, error) {
	disk, err := resourceSeriesForTier(db, "mysql", "dsk_util", window, mscopedb.AggMax)
	if err != nil {
		return nil, 0, err
	}
	queue, err := queueSeriesForTier(db, "apache", window)
	if err != nil {
		return nil, 0, err
	}
	fig := &report.Figure{
		ID:     "fig7",
		Title:  "DB disk utilization vs Apache queue length",
		XLabel: "time (s)",
		YLabel: "disk util (%) / queue",
	}
	_, eps, err := frontEpisodes(db, window)
	if err != nil {
		return nil, 0, err
	}
	if len(eps) == 0 {
		fig.Notes = []string{"no VLRT window"}
		return fig, 0, nil
	}
	w, pad := eps[0], ClassifyPad.Microseconds()
	disk = analysis.SliceSeries(disk, w.StartMicros-pad, w.EndMicros+pad)
	queue = analysis.SliceSeries(queue, w.StartMicros-pad, w.EndMicros+pad)
	corr, n := analysis.Correlate(disk, queue)
	// The queue responds to the disk seizure with a short delay; the
	// lag-adjusted coefficient is the figure's headline number.
	lagCorr, lag := analysis.CrossCorrelate(disk, queue, CorrelationMaxLag)
	fig.Series = []report.Series{
		report.FromDBSeries("mysql disk util", disk, epochUS, 1),
		report.FromDBSeries("apache queue", queue, epochUS, 1),
	}
	fig.Notes = []string{
		fmt.Sprintf("Pearson correlation %.3f over %d windows", corr, n),
		fmt.Sprintf("lag-adjusted correlation %.3f at +%d windows", lagCorr, lag),
	}
	return fig, max(corr, lagCorr), nil
}

// addSeries sums two series defined on the same window grid (same table).
func addSeries(a, b *mscopedb.Series) *mscopedb.Series {
	out := &mscopedb.Series{}
	bv := make(map[int64]float64, len(b.StartMicros))
	for i, t := range b.StartMicros {
		bv[t] = b.Values[i]
	}
	for i, t := range a.StartMicros {
		if v, ok := bv[t]; ok {
			out.StartMicros = append(out.StartMicros, t)
			out.Values = append(out.Values, a.Values[i]+v)
		}
	}
	return out
}

// Fig8Stats summarizes the dirty-page scenario for assertions.
type Fig8Stats struct {
	PIT         *metrics.PITResult
	VLRTWindows []analysis.Window
	// Pushback per VLRT window, in window order.
	Pushback []analysis.PushbackResult
	// Per affected node (apache, tomcat): the peak CPU (user+sys, %), the
	// peak dirty page cache (MB) and the least it holds after that peak —
	// the abrupt drop of Figure 8d.
	CPUPeak, DirtyPeakMB, DirtyAfterMB map[string]float64
}

// Fig8DirtyPage regenerates Figure 8 (a–d): the two response-time peaks,
// the differing queue growth, the CPU saturation on the affected node, and
// the abrupt dirty-page drops.
func Fig8DirtyPage(db *mscopedb.DB, window time.Duration) ([]*report.Figure, *Fig8Stats, error) {
	figA, pit, err := Fig2PointInTime(db, window)
	if err != nil {
		return nil, nil, err
	}
	figA.ID = "fig8a"
	figA.Title = "Point-in-Time response time (dirty-page scenario)"

	figB := &report.Figure{
		ID: "fig8b", Title: "Queue length per tier (dirty-page scenario)",
		XLabel: "time (s)", YLabel: "queued requests",
	}
	queues := make(map[string]*mscopedb.Series, len(Tiers))
	for _, tier := range Tiers {
		s, err := queueSeriesForTier(db, tier, window)
		if err != nil {
			return nil, nil, err
		}
		queues[tier] = s
		figB.Series = append(figB.Series, report.FromDBSeries(tier, s, epochUS, 1))
	}

	figC := &report.Figure{
		ID: "fig8c", Title: "CPU utilization (collectl)",
		XLabel: "time (s)", YLabel: "cpu util (%)",
	}
	figD := &report.Figure{
		ID: "fig8d", Title: "Dirty page cache size (collectl memory)",
		XLabel: "time (s)", YLabel: "dirty (MB)",
	}
	stats := &Fig8Stats{PIT: pit, CPUPeak: map[string]float64{},
		DirtyPeakMB: map[string]float64{}, DirtyAfterMB: map[string]float64{}}
	for _, tier := range []string{"apache", "tomcat"} {
		user, err := resourceSeriesForTier(db, tier, "cpu_user", window, mscopedb.AggAvg)
		if err != nil {
			return nil, nil, err
		}
		sys, err := resourceSeriesForTier(db, tier, "cpu_sys", window, mscopedb.AggAvg)
		if err != nil {
			return nil, nil, err
		}
		dirty, err := resourceSeriesForTier(db, tier, "mem_dirty", window, mscopedb.AggAvg)
		if err != nil {
			return nil, nil, err
		}
		cpu := addSeries(user, sys)
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

	if _, stats.VLRTWindows, err = frontEpisodes(db, window); err != nil {
		return nil, nil, err
	}
	for _, w := range stats.VLRTWindows {
		// Queue growth brackets the response-time peak: inspect the
		// lead-in too, as ClassifyWindow does.
		w.StartMicros -= PushbackLeadIn.Microseconds()
		stats.Pushback = append(stats.Pushback, analysis.DetectPushback(queues, Tiers, w, PushbackGrowth))
	}
	figB.Notes = append(figB.Notes, fmt.Sprintf("%d VLRT windows detected", len(stats.VLRTWindows)))
	for i, pb := range stats.Pushback {
		figB.Notes = append(figB.Notes,
			fmt.Sprintf("peak %d: grew=%v crossTier=%v", i+1, pb.Grew, pb.CrossTier))
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
		ev, err := queueSeriesForTier(db, tier, step)
		if err != nil {
			return nil, nil, err
		}
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
