package stream

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// DefaultGrace is the ceiling on how far behind the low watermark, past
// the correlation slice, a VLRT window must be before the detector classifies
// it. Queue edges are learned at departure (a request's arrival edge
// appears in the log only when it completes), so classification waits out
// the residence of the requests around the window — otherwise the ones in
// flight would be invisible to the queue series the verdict correlates
// against. graceFor reads that residence off the data; this bounds it.
const DefaultGrace = 2 * time.Second

// graceSafety scales the longest residence observed around a window into
// its grace: the verdict then misses only a request that stays more than
// twice as long as the slowest one seen leaving.
const graceSafety = 2

// graceFor is the grace of a window with residenceUS observed around it:
// at least floorUS (one detector window plus the skew bound, when the
// buckets read are closed), at most ceilingUS — which wins over the floor
// too. Residence past the ceiling waits exactly what the constant did.
func graceFor(residenceUS, floorUS, ceilingUS int64) int64 {
	return min(max(graceSafety*residenceUS, floorUS), ceilingUS)
}

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
	Wait
}

// Wait is what a verdict waited for, in event-time µs: the trailing half
// of its correlation slice (core.ClassifySlice), the grace applied past
// it, the front-tier residence the grace was derived from, the ceiling
// (DefaultGrace), and the delay WatermarkUS − Window.EndMicros it fired
// at — zero at shutdown, when nothing is waited out.
type Wait struct {
	SliceUS     int64 `json:"slice_us"`
	GraceUS     int64 `json:"grace_us,omitempty"`
	ResidenceUS int64 `json:"residence_us,omitempty"`
	CeilingUS   int64 `json:"grace_ceiling_us,omitempty"`
	DelayUS     int64 `json:"delay_us,omitempty"`
}

// Waited renders the wait as the CLI prints it.
func (a Wait) Waited() string {
	ms := func(us int64) time.Duration { return time.Duration(us/1000) * time.Millisecond }
	when := "at shutdown"
	if a.DelayUS > 0 {
		when = ms(a.DelayUS).String() + " after window end"
	}
	return fmt.Sprintf("%s: slice %v + grace %v from %v resident, ceiling %v", when, ms(a.SliceUS), ms(a.GraceUS), ms(a.ResidenceUS), ms(a.CeilingUS))
}

// detector folds front-tier events into the online Point-in-Time series and,
// as the low watermark advances, re-runs the shared VLRT detection over
// the closed prefix. A window whose correlation slice, plus the grace its
// residence asks for, is behind the watermark is classified against the
// live warehouse with the same BuildEvidence/ClassifyWindow the batch
// Diagnose uses — the verdict logic exists exactly once. The loader
// goroutine owns all of it; nothing here is safe for concurrent use.
type detector struct {
	db       *mscopedb.DB
	windowUS int64
	// floorUS and ceilingUS bound the derived grace: see graceFor.
	floorUS, ceilingUS int64

	// promote, when set, is called with a flagged window's anomaly
	// neighbourhood [lo, hi] (its slice ± its grace, in event µs) before
	// evidence is built, so degraded-fidelity sessions can retroactively
	// surface the ring-buffered rows the verdict will correlate against.
	// Idempotent by contract — a window retried across advances re-calls
	// it.
	promote func(loUS, hiUS int64)

	// pit is the front tier's Point-in-Time series, the one the batch
	// Diagnose builds.
	pit *metrics.PIT

	alerted []analysis.Window
}

func newDetector(db *mscopedb.DB, window, grace, skew time.Duration) *detector {
	return &detector{
		db:        db,
		windowUS:  window.Microseconds(),
		floorUS:   (window + skew).Microseconds(),
		ceilingUS: grace.Microseconds(),
		pit:       metrics.NewPIT(window),
	}
}

// residence is the longest front-tier response time among the requests
// that departed in the closed buckets (those of pit) overlapping w's
// correlation slice [lo, hi]: at least w.Peak, the window's own slowest.
// Every deeper tier's residence nests inside the front tier's, so it
// bounds them all; the grace floor has the slice closed, the value final,
// before w is due.
func (d *detector) residence(w analysis.Window, lo, hi int64, pit *mscopedb.Series) int64 {
	r := w.Peak
	for i, b := range pit.StartMicros {
		if b > lo-d.windowUS && b <= hi {
			r = max(r, pit.Values[i])
		}
	}
	return int64(r)
}

// advance runs detection against the low watermark. finalLow relaxes the
// gating: at shutdown every source has finished, so all windows close.
// It returns the newly raised alerts, or why the evidence for the due
// windows could not be built (they stay due).
func (d *detector) advance(lowUS int64) ([]Alert, error) {
	final := lowUS == finalLow
	// Buckets whose span [b, b+w) is fully behind the watermark are
	// closed; at shutdown lowUS − w is past every bucket.
	closedHi := lowUS - d.windowUS
	pit := d.pit.Result(closedHi)
	if len(pit.Series.Values) == 0 {
		return nil, nil
	}
	windows := core.VLRTEpisodes(pit.Series, pit.AvgUS)
	// Promote the neighbourhood of every window this pass will classify,
	// then build the evidence once for all of them: it is a function of
	// the warehouse alone, and at shutdown every open window is due at once.
	var due []Alert
	for _, w := range windows {
		if d.overlapsAlerted(w) {
			continue
		}
		lo, hi := core.ClassifySlice(w)
		a := Alert{WatermarkUS: lowUS, Wait: Wait{SliceUS: hi - w.EndMicros, CeilingUS: d.ceilingUS, ResidenceUS: d.residence(w, lo, hi, pit.Series)}}
		a.GraceUS = graceFor(a.ResidenceUS, d.floorUS, d.ceilingUS)
		if !final {
			if hi+a.GraceUS > lowUS {
				continue // evidence around the window is still arriving
			}
			a.DelayUS = lowUS - w.EndMicros
		}
		if d.promote != nil {
			d.promote(lo-a.GraceUS, hi+a.GraceUS)
		}
		a.Diagnosis.Window = w
		due = append(due, a)
	}
	if len(due) == 0 {
		return nil, nil
	}
	ev, missing, err := core.BuildEvidence(d.db, time.Duration(d.windowUS)*time.Microsecond)
	if errors.Is(err, core.ErrNoResources) || (err == nil && ev.Queues[core.Tiers[0]] == nil) {
		// Resource or front-tier tables not in the warehouse yet; the
		// windows stay unalerted and are retried on the next advance.
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	for i := range due {
		a := &due[i]
		d.alerted = append(d.alerted, a.Diagnosis.Window)
		a.Raised, a.Missing = time.Now(), missing
		a.Diagnosis = core.ClassifyWindow(ev, a.Diagnosis.Window)
	}
	return due, nil
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
