package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/resources"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// CauseKind classifies a diagnosed root cause.
type CauseKind int

// Root-cause classes milliScope distinguishes (the paper's Section V
// scenarios plus the related-work causes its design anticipates).
const (
	CauseUnknown CauseKind = iota
	// CauseDiskIO: a disk seizure (e.g. the DB redo-log flush of §V-A).
	CauseDiskIO
	// CauseDirtyPage: kernel dirty-page recycling saturating CPU (§V-B).
	CauseDirtyPage
	// CauseCPU: CPU saturation without a dirty-page signature (e.g. a JVM
	// stop-the-world collection).
	CauseCPU
	// CauseDVFS: CPU slowdown coinciding with a clock-frequency drop.
	CauseDVFS
	// CauseCacheStampede: a disk seizure dominated by reads — a mass
	// buffer-pool expiry stampeding the spindle (vs the write-heavy flush).
	CauseCacheStampede
	// CauseNetJitter: inter-tier message lag spiking with no tier-local
	// resource involvement.
	CauseNetJitter
	// CauseLockConvoy: queues grow through every tier down to the last with
	// all resource gauges flat — serialized software contention in the DB.
	CauseLockConvoy
	// CauseConnPool: a contiguous front set of tiers queues while the next
	// tier (whose evidence is present) stays calm — the boundary tier's
	// downstream connection pool is exhausted.
	CauseConnPool
	// CauseCrashLoop: like CauseConnPool, but the tier behind the boundary
	// contributes no queue evidence at all — it stopped logging (crashed),
	// and the verdict rests on the MissingSources degraded path.
	CauseCrashLoop
)

func (k CauseKind) String() string {
	switch k {
	case CauseDiskIO:
		return "disk-io"
	case CauseDirtyPage:
		return "dirty-page-recycling"
	case CauseCPU:
		return "cpu-saturation"
	case CauseDVFS:
		return "dvfs-downclocking"
	case CauseCacheStampede:
		return "cache-stampede"
	case CauseNetJitter:
		return "net-jitter"
	case CauseLockConvoy:
		return "lock-convoy"
	case CauseConnPool:
		return "conn-pool-exhaustion"
	case CauseCrashLoop:
		return "crash-loop"
	default:
		return "unknown"
	}
}

// CauseKinds lists every distinguishable root-cause class, CauseUnknown
// excluded.
func CauseKinds() []CauseKind {
	return []CauseKind{CauseDiskIO, CauseDirtyPage, CauseCPU, CauseDVFS,
		CauseCacheStampede, CauseNetJitter, CauseLockConvoy, CauseConnPool,
		CauseCrashLoop}
}

// ParseCauseKind resolves a cause-kind name ("disk-io") to its value.
func ParseCauseKind(s string) (CauseKind, bool) {
	for _, k := range CauseKinds() {
		if k.String() == s {
			return k, true
		}
	}
	return CauseUnknown, false
}

// Diagnostic thresholds shared by the batch Diagnose workflow and the
// streaming online detector (internal/stream): both must reach the same
// verdict on the same data, so the knobs live in one place.
const (
	// VLRTFactor flags windows whose Point-in-Time response time exceeds
	// this multiple of the average.
	VLRTFactor = 10
	// MaxVSBDuration excludes sustained overloads: a very short bottleneck
	// is by definition short.
	MaxVSBDuration = 3 * time.Second
	// EpisodeGap is the longest dip below the VLRT threshold that does not
	// end an episode (two 50 ms windows): a plateau barely above the
	// threshold is one episode, not one per crossing.
	EpisodeGap = 100 * time.Millisecond
	// CorrelationFloor is the minimum resource–queue correlation for a
	// candidate to be named the root cause.
	CorrelationFloor = 0.3
	// ClassifyPad widens the correlation slice around a VLRT window: the
	// queue builds before the PIT spike lands. It is the whole lead-in and
	// the cap on the trailing half, see ClassifySlice.
	ClassifyPad = time.Second
	// PushbackLeadIn extends the pushback window backwards — queues grow
	// while the resource is held, the spike lands when requests complete.
	PushbackLeadIn = 400 * time.Millisecond
	// PushbackGrowth is the in-window/out-of-window queue growth factor
	// that counts a tier as pushed back.
	PushbackGrowth = 2.5
	// CorrelationMaxLag bounds the cross-correlation lag search, in
	// windows.
	CorrelationMaxLag = 8
	// NetLagSpikeUS is the inter-tier lag rise (in-window peak over
	// out-of-window mean, µs) that names network jitter. An absolute delta,
	// not a ratio: per-node clock offsets shift each link's lag baseline.
	NetLagSpikeUS = 1500.0
	// StampedeReadFactor and StampedeReadFloorKB refine a disk verdict to a
	// cache stampede: in-window disk reads must exceed the floor and
	// dominate writes by the factor.
	StampedeReadFactor  = 2.0
	StampedeReadFloorKB = 256.0
	// SaturationFloorPct is the minimum in-window peak (both disk util and
	// CPU series are percent scales) for a correlated gauge to be blamed: a
	// resource that never got busy cannot have caused the stall, however
	// well its noise tracks the queue.
	SaturationFloorPct = 50.0
	// StrongCorrelation marks a gauge verdict unambiguous. Structural
	// crash-loop evidence — a tier that stopped logging behind the queue
	// growth front — overrides gauge verdicts weaker than this (e.g. the
	// post-restart drain burst that busies the surviving tiers).
	StrongCorrelation = 0.6
)

// WindowDiagnosis explains one VLRT window.
type WindowDiagnosis struct {
	Window   analysis.Window
	Pushback analysis.PushbackResult
	// Causes ranks every candidate resource by lag-adjusted correlation
	// with the front-tier queue around the window.
	Causes []analysis.Cause
	// Kind and Node identify the concluded root cause.
	Kind CauseKind
	Node string
	// Verdict is the human-readable conclusion.
	Verdict string
}

// Diagnosis is the full analysis of one ingested trial.
type Diagnosis struct {
	PIT     *metrics.PITResult
	Windows []WindowDiagnosis
	// MissingSources lists warehouse tables the diagnosis wanted but found
	// absent (a tier's log lost or rejected by the ingest error budget).
	// Their sensors are simply excluded; a nonzero list means the verdict
	// rests on partial evidence.
	MissingSources []string
}

// Degraded reports whether any evidence source was unavailable.
func (d *Diagnosis) Degraded() bool { return len(d.MissingSources) > 0 }

// ResourceCandidate ties one resource series to the root-cause class it
// would imply if it correlates with the front-tier queue.
type ResourceCandidate struct {
	// Name identifies the series in ranked output ("mysql disk").
	Name string
	// Tier is the node the series was sampled on.
	Tier string
	// Kind is the cause class a win would conclude.
	Kind CauseKind
	// Series is the windowed resource series.
	Series *mscopedb.Series
}

// Evidence is the sensor set a window classification consults: per-tier
// queue series, ranked resource candidates, and the corroborating
// dirty-page and CPU-frequency gauges. The batch Diagnose builds it from
// warehouse tables; the streaming detector builds it incrementally from
// closed windows — both hand it to the same ClassifyWindow.
type Evidence struct {
	// Queues maps tier → queue-length series (front tier required for a
	// meaningful classification; missing tiers contribute nothing).
	Queues map[string]*mscopedb.Series
	// Candidates are the resource series to rank.
	Candidates []ResourceCandidate
	// Dirty maps tier → dirty-page-size series (refines CPU causes).
	Dirty map[string]*mscopedb.Series
	// Freq maps tier → CPU-frequency series (refines CPU causes).
	Freq map[string]*mscopedb.Series
	// DiskRead and DiskWrite map tier → disk throughput series (KB/s,
	// refine disk causes: reads dominating the episode indicate a cache
	// stampede, not a log flush).
	DiskRead  map[string]*mscopedb.Series
	DiskWrite map[string]*mscopedb.Series
	// NetLag maps receiving tier → inter-tier message-lag series (µs),
	// joined from adjacent event tables. Kept out of Candidates: lag is
	// not a gauge to correlate but a signature consulted when no resource
	// explains the spike.
	NetLag map[string]*mscopedb.Series
}

// ErrNoResources is BuildEvidence's error for a warehouse with no
// resource-monitor table: the one the live detector retries on in silence.
var ErrNoResources = errors.New("core: no resource-monitor tables in the warehouse")

// BuildEvidence assembles the classification evidence from an ingested
// warehouse at the given window width, recording absent tables in missing
// instead of failing. Unreadable tables aside, it errors only when no resource
// table exists: with zero candidates there is nothing to correlate against.
func BuildEvidence(db *mscopedb.DB, window time.Duration) (*Evidence, []string, error) {
	ev := &Evidence{
		Queues:    make(map[string]*mscopedb.Series, len(Tiers)),
		Dirty:     make(map[string]*mscopedb.Series, len(Tiers)),
		Freq:      make(map[string]*mscopedb.Series, len(Tiers)),
		DiskRead:  make(map[string]*mscopedb.Series, len(Tiers)),
		DiskWrite: make(map[string]*mscopedb.Series, len(Tiers)),
		NetLag:    make(map[string]*mscopedb.Series, len(Tiers)),
	}
	var missing []string
	// One pass per event table: the tier's queue, and both of its stamp
	// columns for the lag links it takes part in. links[i] joins Tiers[i]
	// to Tiers[i+1] and exists only when both tables do.
	sp := selfobs.Begin(selfobs.PipeDiagnose, "evidence", "queues", "")
	links := make([]*link, len(Tiers))
	for i := 0; i+1 < len(Tiers); i++ {
		if up, err := db.Table(Tiers[i] + "_event"); err == nil && db.HasTable(Tiers[i+1]+"_event") {
			links[i] = newLink(up.Rows())
		}
	}
	eventRows := 0
	for i, tier := range Tiers {
		tbl, err := db.Table(tier + "_event")
		if err != nil {
			missing = append(missing, tier+"_event")
			continue
		}
		var q metrics.Queue
		var up *link
		if i > 0 {
			up = links[i-1]
		}
		if err := scanEvents(tbl, &q, up, links[i]); err != nil {
			return nil, missing, err
		}
		pts, err := q.Points(window)
		if err != nil {
			return nil, missing, err
		}
		ev.Queues[tier] = metrics.PointsToSeries(pts)
		eventRows += tbl.Rows()
	}
	sp.End(int64(eventRows), 0)
	// One selection per resource table serves all seven of its series.
	sp = selfobs.Begin(selfobs.PipeDiagnose, "evidence", "resources", "")
	for _, tier := range Tiers {
		tbl, err := db.Table(tier + "_collectlcsv")
		if err != nil {
			missing = append(missing, tier+"_collectlcsv")
			continue
		}
		res, err := tbl.Select().Rows()
		if err != nil {
			return nil, missing, err
		}
		series := func(col string, fn mscopedb.AggFn) (*mscopedb.Series, error) {
			return res.WindowAgg("ts", window, col, fn)
		}
		disk, err := series("dsk_util", mscopedb.AggMax)
		if err != nil {
			return nil, missing, err
		}
		ev.Candidates = append(ev.Candidates, ResourceCandidate{
			Name: tier + " disk", Tier: tier, Kind: CauseDiskIO, Series: disk})
		user, err := series("cpu_user", mscopedb.AggAvg)
		if err != nil {
			return nil, missing, err
		}
		sys, err := series("cpu_sys", mscopedb.AggAvg)
		if err != nil {
			return nil, missing, err
		}
		ev.Candidates = append(ev.Candidates, ResourceCandidate{
			Name: tier + " cpu", Tier: tier, Kind: CauseCPU, Series: addSeries(user, sys)})
		if d, err := series("mem_dirty", mscopedb.AggAvg); err == nil {
			ev.Dirty[tier] = d
		}
		if f, err := series("cpu_mhz", mscopedb.AggMin); err == nil {
			ev.Freq[tier] = f
		}
		if r, err := series("dsk_readkbtot", mscopedb.AggMax); err == nil {
			ev.DiskRead[tier] = r
		}
		if w, err := series("dsk_writekbtot", mscopedb.AggMax); err == nil {
			ev.DiskWrite[tier] = w
		}
	}
	sp.End(int64(len(ev.Candidates)), 0)
	sp = selfobs.Begin(selfobs.PipeDiagnose, "evidence", "netlag", "")
	for i, l := range links {
		if l == nil {
			continue
		}
		if lag := l.series(window); lag != nil {
			ev.NetLag[Tiers[i+1]] = lag
		}
	}
	sp.End(int64(len(ev.NetLag)), 0)
	if len(ev.Candidates) == 0 {
		return nil, missing, fmt.Errorf("%w (missing %v): diagnosis needs at least one tier's resource plane", ErrNoResources, missing)
	}
	return ev, missing, nil
}

// ClassifySlice is the correlation slice [lo, hi] ClassifyWindow reads
// around w, in µs: ClassifyPad of lead-in, where the queue builds, and
// past the end the window's own Peak (at most ClassifyPad) — the requests
// stuck in it drain within about the slowest one's residence, and that
// drain is what the queue curve adds after the spike. The live detector
// waits for the same hi.
func ClassifySlice(w analysis.Window) (lo, hi int64) {
	pad := ClassifyPad.Microseconds()
	return w.StartMicros - pad, w.EndMicros + min(int64(w.Peak), pad)
}

// VLRTEpisodes is the one episode rule of the batch Diagnose and the live
// detector: the PIT windows above VLRTFactor × avgUS, neighbours at most
// EpisodeGap apart merged into one (Peak the larger), then every episode
// longer than MaxVSBDuration dropped — after the merge, so a sustained
// plateau cannot pass as short pieces.
func VLRTEpisodes(pit *mscopedb.Series, avgUS float64) []analysis.Window {
	var eps []analysis.Window
	for _, w := range analysis.DetectAnomalies(pit, VLRTFactor*avgUS, 0) {
		if n := len(eps) - 1; n >= 0 && w.StartMicros-eps[n].EndMicros <= EpisodeGap.Microseconds() {
			eps[n].EndMicros, eps[n].Peak = w.EndMicros, max(eps[n].Peak, w.Peak)
			continue
		}
		eps = append(eps, w)
	}
	return slices.DeleteFunc(eps, func(w analysis.Window) bool { return w.Duration() > MaxVSBDuration })
}

// ClassifyWindow names the root cause of one VLRT window from the
// evidence: classify queue pushback, rank every candidate resource by
// lag-adjusted correlation with the front-tier queue around the window,
// and refine CPU causes with the corroborating dirty-page and frequency
// sensors. Both the batch Diagnose and the streaming online detector call
// this — the verdict logic exists exactly once.
func ClassifyWindow(ev *Evidence, w analysis.Window) WindowDiagnosis {
	wd := WindowDiagnosis{Window: w}
	// Queues build while the resource is held and the PIT spike lands
	// when the stuck requests complete, so inspect the lead-in too.
	wide := w
	wide.StartMicros -= PushbackLeadIn.Microseconds()
	wd.Pushback = analysis.DetectPushback(ev.Queues, Tiers, wide, PushbackGrowth)

	lo, hi := ClassifySlice(w)
	// The front tier's queue is the correlation reference; without it every
	// candidate correlates 0 and only structural evidence can speak.
	front := ev.Queues[Tiers[0]]
	if front == nil {
		front = &mscopedb.Series{}
	}
	ref := analysis.SliceSeries(front, lo, hi)
	byName := make(map[string]ResourceCandidate, len(ev.Candidates))
	for _, c := range ev.Candidates {
		sliced := analysis.SliceSeries(c.Series, lo, hi)
		corr, _ := analysis.CrossCorrelate(sliced, ref, CorrelationMaxLag)
		// Peak over the lead-in plus the window itself: the spike lands as
		// the stuck requests complete, typically just after the seized
		// resource releases. The post-window tail is excluded — the drain
		// burst busies every tier and would indict innocent gauges.
		peak := 0.0
		for _, v := range analysis.SliceSeries(c.Series, lo, w.EndMicros).Values {
			if v > peak {
				peak = v
			}
		}
		wd.Causes = append(wd.Causes, analysis.Cause{
			Name: c.Name, Correlation: corr, PeakInWindow: peak,
		})
		byName[c.Name] = c
	}
	sortCauses(wd.Causes)
	// The build-up slice shows the queue structure while requests were
	// stuck, before their completions land the PIT spike: a software stall
	// (lock convoy, exhausted pool, crash) has its signature there, not in
	// the spike window where the drain burst floods every tier at once.
	buildWin := analysis.Window{StartMicros: lo, EndMicros: w.StartMicros}
	buildPB := analysis.DetectPushback(ev.Queues, Tiers, buildWin, PushbackGrowth)
	sKind, sNode := structuralVerdict(ev, buildPB)
	if sKind == CauseUnknown {
		// A spike window early in the stall has a mostly-healthy build-up
		// slice; the lead-in pushback still shows the structure.
		buildPB = wd.Pushback
		sKind, sNode = structuralVerdict(ev, buildPB)
	}
	var top *analysis.Cause
	for i := range wd.Causes {
		c := &wd.Causes[i]
		if c.Correlation > CorrelationFloor && c.PeakInWindow >= SaturationFloorPct {
			top = c
			break
		}
	}
	netTier, netRise := netLagSpiked(ev, lo, hi)
	// A tier that stopped logging behind the growth front outranks weakly
	// correlated gauges: the post-crash drain busies real resources on the
	// surviving tiers, but the silent tier is the story. A spiking wire
	// still wins — the lag rise is direct evidence, the silence is
	// circumstantial.
	if sKind == CauseCrashLoop && netTier == "" &&
		(top == nil || top.Correlation < StrongCorrelation) {
		wd.Kind, wd.Node = sKind, sNode
		wd.Verdict = fmt.Sprintf("%s at %s (structural: queues grew at %v, no evidence from %s)",
			wd.Kind, wd.Node, buildPB.Grew, sNode)
		return wd
	}
	if top != nil {
		c := byName[top.Name]
		wd.Kind, wd.Node = c.Kind, c.Tier
		// Refine CPU causes with the corroborating sensors.
		if wd.Kind == CauseCPU {
			if f, ok := ev.Freq[c.Tier]; ok && freqDropped(f, lo, hi) {
				wd.Kind = CauseDVFS
			} else if d, ok := ev.Dirty[c.Tier]; ok && dirtyCollapsed(d, lo, hi) {
				wd.Kind = CauseDirtyPage
			}
		}
		// Refine disk causes: a read-dominated seizure is a stampede, not
		// a log flush.
		if wd.Kind == CauseDiskIO && readsDominate(ev, c.Tier, w) {
			wd.Kind = CauseCacheStampede
		}
		wd.Verdict = fmt.Sprintf("%s at %s (r=%.2f, peak %.1f)",
			wd.Kind, wd.Node, top.Correlation, top.PeakInWindow)
		return wd
	}
	// No resource gauge explains the spike. Check the wire: an inter-tier
	// lag rise names network jitter on that link.
	if netTier != "" {
		wd.Kind, wd.Node = CauseNetJitter, netTier
		wd.Verdict = fmt.Sprintf("%s at %s (lag rise %.0fµs)", wd.Kind, wd.Node, netRise)
		return wd
	}
	// Still unexplained: fall back to the queue structure — which tiers
	// grew during the build-up, and what the tier behind the growth front
	// looks like.
	if sKind != CauseUnknown {
		wd.Kind, wd.Node = sKind, sNode
		wd.Verdict = fmt.Sprintf("%s at %s (structural: queues grew at %v)",
			wd.Kind, wd.Node, buildPB.Grew)
		return wd
	}
	wd.Verdict = "no resource correlates with the queue spike"
	return wd
}

// readsDominate reports whether in-window disk reads on the tier exceed
// the stampede floor and dominate writes by the stampede factor.
func readsDominate(ev *Evidence, tier string, w analysis.Window) bool {
	rd, ok := ev.DiskRead[tier]
	if !ok {
		return false
	}
	readPeak := 0.0
	for _, v := range analysis.SliceSeries(rd, w.StartMicros, w.EndMicros).Values {
		if v > readPeak {
			readPeak = v
		}
	}
	if readPeak <= StampedeReadFloorKB {
		return false
	}
	writePeak := 0.0
	if wr, ok := ev.DiskWrite[tier]; ok {
		for _, v := range analysis.SliceSeries(wr, w.StartMicros, w.EndMicros).Values {
			if v > writePeak {
				writePeak = v
			}
		}
	}
	return readPeak > StampedeReadFactor*writePeak
}

// netLagSpiked scans every instrumented link for an in-window lag rise
// above NetLagSpikeUS over the link's out-of-window baseline, returning
// the receiving tier of the worst offender.
func netLagSpiked(ev *Evidence, lo, hi int64) (string, float64) {
	bestTier, bestRise := "", 0.0
	for _, tier := range Tiers {
		lag, ok := ev.NetLag[tier]
		if !ok {
			continue
		}
		peak := 0.0
		for _, v := range analysis.SliceSeries(lag, lo, hi).Values {
			if v > peak {
				peak = v
			}
		}
		baseSum, baseN := 0.0, 0
		for i, ts := range lag.StartMicros {
			if ts < lo || ts > hi {
				baseSum += lag.Values[i]
				baseN++
			}
		}
		if baseN == 0 {
			continue
		}
		if rise := peak - baseSum/float64(baseN); rise > NetLagSpikeUS && rise > bestRise {
			bestTier, bestRise = tier, rise
		}
	}
	return bestTier, bestRise
}

// structuralVerdict names software bottlenecks no gauge can see from the
// shape of the queue growth: a contiguous front prefix of tiers grew while
// everything behind stayed calm. Growth reaching the last tier is a lock
// convoy there; a calm-but-present tier behind the front is the boundary
// tier's exhausted connection pool; a tier with no queue evidence at all
// behind the front stopped logging — a crash loop.
func structuralVerdict(ev *Evidence, pb analysis.PushbackResult) (CauseKind, string) {
	grew := make(map[string]bool, len(pb.Grew))
	for _, t := range pb.Grew {
		grew[t] = true
	}
	if !grew[Tiers[0]] {
		return CauseUnknown, ""
	}
	deepest := 0
	for deepest+1 < len(Tiers) && grew[Tiers[deepest+1]] {
		deepest++
	}
	if deepest == len(Tiers)-1 {
		return CauseLockConvoy, Tiers[deepest]
	}
	next := Tiers[deepest+1]
	if _, ok := ev.Queues[next]; !ok {
		return CauseCrashLoop, next
	}
	return CauseConnPool, Tiers[deepest]
}

// Diagnose runs the paper's workflow over an ingested trial: find VLRT
// windows in the Point-in-Time series, classify queue pushback, rank
// resource candidates by correlation with the front-tier queue, and name
// the root cause per window.
//
// The front tier's event table is required — without it there is no
// response-time series to diagnose. Every other source degrades: a tier
// with no event table contributes no queue, a tier with no collectl table
// contributes no resource candidates, and each absence is recorded in
// Diagnosis.MissingSources instead of failing the run.
func Diagnose(db *mscopedb.DB, window time.Duration) (*Diagnosis, error) {
	obs := selfobs.NewBuf()
	defer obs.Close()
	tbl, err := db.Table(Tiers[0] + "_event")
	if err != nil {
		return nil, err
	}
	sp := obs.Begin(selfobs.PipeDiagnose, "pit", "-", "")
	pit, err := metrics.PointInTimeRT(tbl, window)
	if err != nil {
		return nil, err
	}
	sp.End(int64(pit.Requests), 0)
	out := &Diagnosis{PIT: pit}
	sp = obs.Begin(selfobs.PipeDiagnose, "vlrt", "-", "")
	vlrts := VLRTEpisodes(pit.Series, pit.AvgUS)
	sp.End(int64(len(vlrts)), 0)
	if len(vlrts) == 0 {
		return out, nil
	}

	ev, missing, err := BuildEvidence(db, window)
	out.MissingSources = missing
	if err != nil {
		return nil, err
	}
	sp = obs.Begin(selfobs.PipeDiagnose, "classify", "-", "")
	for _, w := range vlrts {
		out.Windows = append(out.Windows, ClassifyWindow(ev, w))
	}
	sp.End(int64(len(out.Windows)), 0)
	return out, nil
}

// sortCauses orders by correlation then peak (same as analysis ranking).
func sortCauses(causes []analysis.Cause) {
	for i := 1; i < len(causes); i++ {
		for j := i; j > 0; j-- {
			a, b := causes[j-1], causes[j]
			if b.Correlation > a.Correlation ||
				(b.Correlation == a.Correlation && b.PeakInWindow > a.PeakInWindow) {
				causes[j-1], causes[j] = b, a
				continue
			}
			break
		}
	}
}

// freqDropped reports whether the clock frequency dipped well below
// nominal inside the range.
func freqDropped(f *mscopedb.Series, lo, hi int64) bool {
	for _, v := range analysis.SliceSeries(f, lo, hi).Values {
		if v > 0 && v < 0.7*resources.NominalMHz {
			return true
		}
	}
	return false
}

// dirtyCollapsed reports whether the dirty-page size fell by more than
// half within the range — the recycling signature of Figure 8d.
func dirtyCollapsed(d *mscopedb.Series, lo, hi int64) bool {
	vals := analysis.SliceSeries(d, lo, hi).Values
	peak, trough := 0.0, 0.0
	seenPeak := false
	for _, v := range vals {
		if v > peak {
			peak = v
			trough = v
			seenPeak = true
			continue
		}
		if seenPeak && v < trough {
			trough = v
		}
	}
	return seenPeak && peak > 64*1024 && trough < peak/2
}
