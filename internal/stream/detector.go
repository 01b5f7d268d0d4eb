package stream

import (
	"math"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// DefaultGrace is how far behind the low watermark a VLRT window must be
// before the detector classifies it. Queue edges are learned at departure
// (a request's arrival edge appears in the log only when it completes), so
// classification waits out the longest plausible residence time on top of
// the correlation pad — otherwise in-flight requests would be invisible to
// the queue series the verdict correlates against.
const DefaultGrace = 2 * time.Second

// Alert is one millibottleneck the online detector raised.
type Alert struct {
	// ID numbers alerts in raise order, from 1.
	ID int
	// Raised is the wall-clock time the verdict fired — the e2e proof the
	// detector beats the experiment's end.
	Raised time.Time
	// WatermarkUS is the low watermark at raise time.
	WatermarkUS int64
	// Diagnosis carries the same verdict structure the batch workflow
	// produces: window, pushback, ranked causes, kind, node.
	Diagnosis core.WindowDiagnosis
	// Missing lists evidence tables absent when the verdict was reached
	// (a tier rejected over budget, or its log never appeared).
	Missing []string
}

// detector folds front-tier events into online Point-in-Time buckets and,
// as the low watermark advances, re-runs the shared VLRT detection over
// the closed prefix. A window fully behind the watermark (plus correlation
// pad plus residence grace) is classified against the live warehouse with
// the same BuildEvidence/ClassifyWindow the batch Diagnose uses — the
// verdict logic exists exactly once. The loader goroutine owns all of it;
// nothing here is safe for concurrent use.
type detector struct {
	db       *mscopedb.DB
	windowUS int64
	graceUS  int64

	// promote, when set, is called with a flagged window's anomaly
	// neighbourhood [lo, hi] (window ± pad ± grace, in event µs) before
	// evidence is built, so degraded-fidelity sessions can retroactively
	// surface the ring-buffered rows the verdict will correlate against.
	// Idempotent by contract — a window retried across advances re-calls
	// it.
	promote func(loUS, hiUS int64)

	buckets  map[int64]float64 // bucket start → max RT µs
	loB, hiB int64
	haveB    bool
	sumRT    float64
	maxRT    float64
	count    int

	alerted []analysis.Window
}

func newDetector(db *mscopedb.DB, window, grace time.Duration) *detector {
	return &detector{
		db:       db,
		windowUS: window.Microseconds(),
		graceUS:  grace.Microseconds(),
		buckets:  make(map[int64]float64),
	}
}

// observe folds one completed front-tier request into the PIT buckets —
// the same max(ud−ua) bucketed-by-departure statistic as the batch series.
func (d *detector) observe(uaUS, udUS int64) {
	rt := float64(udUS - uaUS)
	d.sumRT += rt
	d.count++
	if rt > d.maxRT {
		d.maxRT = rt
	}
	b := udUS - modUS(udUS, d.windowUS)
	if rt > d.buckets[b] {
		d.buckets[b] = rt
	}
	if !d.haveB || b < d.loB {
		d.loB = b
	}
	if !d.haveB || b > d.hiB {
		d.hiB = b
	}
	d.haveB = true
}

// series materializes the PIT buckets up to hiUS (inclusive bucket start)
// on the absolute grid, empty buckets filled with zero — mirroring the
// batch PointInTimeRT construction.
func (d *detector) series(hiUS int64) *mscopedb.Series {
	var s mscopedb.Series
	for b := d.loB; b <= hiUS; b += d.windowUS {
		s.StartMicros = append(s.StartMicros, b)
		s.Values = append(s.Values, d.buckets[b])
	}
	return &s
}

// advance runs detection against the low watermark. final relaxes the
// gating: at shutdown every source has finished, so all windows close.
// It returns the newly raised alerts.
func (d *detector) advance(lowUS int64, final bool, window time.Duration, now func() time.Time) []Alert {
	if !d.haveB || d.count == 0 {
		return nil
	}
	// Buckets whose span [b, b+w) is fully behind the watermark are closed.
	closedHi := lowUS - d.windowUS
	if closedHi > d.hiB || final {
		closedHi = d.hiB
	}
	if closedHi < d.loB {
		return nil
	}
	avg := d.sumRT / float64(d.count)
	windows := analysis.DetectVLRTWindows(d.series(closedHi), avg, core.VLRTFactor, core.MaxVSBDuration)
	padUS := core.ClassifyPad.Microseconds()
	// Promote the neighbourhood of every window this pass will classify,
	// then build the evidence once for all of them: it is a function of
	// the warehouse alone, and at shutdown every open window is due at once.
	var due []analysis.Window
	for _, w := range windows {
		if !final && w.EndMicros+padUS+d.graceUS > lowUS {
			continue // evidence around the window is still arriving
		}
		if d.overlapsAlerted(w) {
			continue
		}
		if d.promote != nil {
			d.promote(w.StartMicros-(padUS+d.graceUS), w.EndMicros+padUS+d.graceUS)
		}
		due = append(due, w)
	}
	if len(due) == 0 {
		return nil
	}
	ev, missing, err := core.BuildEvidence(d.db, window)
	if err != nil || ev.Queues["apache"] == nil {
		// Resource or front-tier tables not in the warehouse yet; the
		// windows stay unalerted and are retried on the next advance.
		return nil
	}
	out := make([]Alert, 0, len(due))
	for _, w := range due {
		d.alerted = append(d.alerted, w)
		out = append(out, Alert{
			Raised:      now(),
			WatermarkUS: lowUS,
			Diagnosis:   core.ClassifyWindow(ev, w),
			Missing:     missing,
		})
	}
	return out
}

// overlapsAlerted dedups re-detections: as the watermark advances the same
// episode is found again each pass (its bounds can shift a bucket as the
// running average evolves), so any overlap with an alerted window skips it.
func (d *detector) overlapsAlerted(w analysis.Window) bool {
	for _, a := range d.alerted {
		if w.StartMicros <= a.EndMicros && a.StartMicros <= w.EndMicros {
			return true
		}
	}
	return false
}

// finalLow is the watermark value advance receives at shutdown.
const finalLow = int64(math.MaxInt64)

func modUS(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
