// Package metrics derives the paper's diagnostic time series from
// warehouse tables: Point-in-Time response time (Figure 2), instantaneous
// per-tier queue lengths from event records (Figure 6), and windowed
// resource series (Figures 4, 8c, 8d).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Point is one sample of an integer-valued series.
type Point struct {
	AtMicros int64
	N        int
}

// PITResult is a Point-in-Time response time series.
type PITResult struct {
	// Series holds the per-window maximum response time in microseconds,
	// bucketed by completion time.
	Series *mscopedb.Series
	// AvgUS is the overall mean response time in microseconds.
	AvgUS float64
	// MaxUS is the overall maximum.
	MaxUS float64
	// Requests is the population size.
	Requests int
}

// PeakFactor returns max/avg — the paper's "twenty times the average"
// headline statistic.
func (p *PITResult) PeakFactor() float64 {
	if p.AvgUS <= 0 {
		return 0
	}
	return p.MaxUS / p.AvgUS
}

// scanSpans reads an event table's arrival and departure stamps (ua, ud)
// chunk by chunk, decoding only those two columns.
func scanSpans(tbl *mscopedb.Table, fn func(ua, ud []int64)) error {
	if tbl.ColIndex("ua") < 0 || tbl.ColIndex("ud") < 0 {
		return fmt.Errorf("metrics: %s lacks ua/ud columns", tbl.Name())
	}
	return tbl.Scan([]string{"ua", "ud"}, func(ch *mscopedb.Chunk) error {
		ua, err := ch.Micros(0)
		if err != nil {
			return err
		}
		ud, err := ch.Micros(1)
		if err != nil {
			return err
		}
		fn(ua, ud)
		return nil
	})
}

// PIT accumulates the Point-in-Time response time one request at a time:
// per window of fixed width on the absolute grid, the maximum, sum and
// count of (ud-ua) over the requests that departed in it, and the mean and
// maximum over all of them. PointInTimeRT (so Diagnose, whose PIT the
// figures render) and the live detector fold their rows through it. Not safe for
// concurrent use.
type PIT struct {
	widthUS  int64
	buckets  map[int64]pitBucket // bucket start → its requests
	lo, hi   int64               // first and last bucket start
	next     int64               // first bucket CloseTo has not handed out
	sum, max float64
	n        int
}

type pitBucket struct {
	max, sum float64
	n        int
}

// NewPIT starts an empty accumulator of the given window width, which
// must be at least one microsecond.
func NewPIT(window time.Duration) *PIT {
	return &PIT{widthUS: window.Microseconds(), buckets: make(map[int64]pitBucket), next: math.MinInt64}
}

// Observe folds in one completed request, bucketed by its departure.
func (p *PIT) Observe(uaUS, udUS int64) {
	rt := float64(udUS - uaUS)
	p.sum += rt
	p.max = max(p.max, rt)
	b := udUS - mod(udUS, p.widthUS)
	bk := p.buckets[b]
	p.buckets[b] = pitBucket{max(bk.max, rt), bk.sum + rt, bk.n + 1}
	if p.n == 0 || b < p.lo {
		p.lo = b
	}
	if p.n == 0 || b > p.hi {
		p.hi = b
	}
	p.n++
}

// CloseTo hands fn each window not handed out before, in order, through
// the last starting at or before hiUS and no later than the last observed:
// its span, the maximum and sum of its response times, and their count. A
// request observed into a window already handed out counts in Result only.
func (p *PIT) CloseTo(hiUS int64, fn func(startUS, endUS int64, maxUS, sumUS float64, n int)) {
	if p.n == 0 {
		return
	}
	for p.next = max(p.next, p.lo); p.next <= min(hiUS, p.hi); p.next += p.widthUS {
		bk := p.buckets[p.next]
		fn(p.next, p.next+p.widthUS, bk.max, bk.sum, bk.n)
	}
}

// Result is the series of the windows that start in [loUS, hiUS], from
// the first observed through the last, empty windows filled with zero,
// with the mean and maximum over every request observed.
func (p *PIT) Result(loUS, hiUS int64) *PITResult {
	var s mscopedb.Series
	// The first grid point at or after loUS; a wrapped difference loses too.
	for b := max(p.lo, loUS+mod(p.lo-loUS, p.widthUS)); p.n > 0 && b <= min(hiUS, p.hi); b += p.widthUS {
		s.StartMicros = append(s.StartMicros, b)
		s.Values = append(s.Values, p.buckets[b].max)
	}
	r := &PITResult{Series: &s, MaxUS: p.max, Requests: p.n}
	if p.n > 0 {
		r.AvgUS = p.sum / float64(p.n)
	}
	return r
}

// PointInTimeRT folds a front-tier event table into a PIT of the given
// window width: per window, the maximum of (ud-ua); requests are bucketed
// by completion time (ud). An empty table and a span of more windows than
// the grid cap are errors.
func PointInTimeRT(tbl *mscopedb.Table, window time.Duration) (*PIT, error) {
	if window.Microseconds() <= 0 {
		return nil, fmt.Errorf("metrics: window %v is below one microsecond", window)
	}
	p := NewPIT(window)
	err := scanSpans(tbl, func(uas, uds []int64) {
		for r, ud := range uds {
			p.Observe(uas[r], ud)
		}
	})
	if err != nil {
		return nil, err
	}
	if p.n == 0 {
		return nil, fmt.Errorf("metrics: %s is empty", tbl.Name())
	}
	if err := checkGrid(p.hi-p.lo, p.widthUS, tbl.Name()); err != nil {
		return nil, err
	}
	return p, nil
}

// Queue counts the arrival and departure instants of a tier's event rows,
// chunk by chunk, per step of an absolute grid fixed at construction, and
// samples them into the instantaneous number of resident requests. The
// counts are the same whatever order the rows come in, so rows fold in
// between samplings, and a sampling costs the steps spanned, not the rows.
// Not safe for concurrent use.
type Queue struct {
	step   time.Duration
	stepUS int64
	n      int
	lo, hi int64 // the earliest and latest instant folded
	// net[k] is the arrivals less the departures at the instants t with
	// (base+k-1)·step < t ≤ (base+k)·step: what a sample at (base+k)·step
	// sees that the one before it did not.
	base int64
	net  []int
}

// NewQueue starts an empty queue sampled every step.
func NewQueue(step time.Duration) *Queue {
	return &Queue{step: step, stepUS: step.Microseconds()}
}

// Add takes the ua and ud columns of some event rows.
func (q *Queue) Add(ua, ud []int64) {
	if len(ua) == 0 || q.stepUS <= 0 {
		return
	}
	lo, hi := min(slices.Min(ua), slices.Min(ud)), max(slices.Max(ua), slices.Max(ud))
	if q.n > 0 {
		lo, hi = min(lo, q.lo), max(hi, q.hi)
	}
	q.n, q.lo, q.hi = q.n+len(ua), lo, hi
	if (hi-q.first())/q.stepUS >= mscopedb.MaxGridBuckets {
		q.net = nil // Points refuses the grid
		return
	}
	first := q.first() / q.stepUS
	if len(q.net) == 0 {
		q.base = first
	}
	if first < q.base {
		q.net = append(make([]int, q.base-first, q.base-first+int64(len(q.net))), q.net...)
		q.base = first
	}
	if need := q.slot(hi) - q.base + 1; need > int64(len(q.net)) {
		q.net = append(q.net, make([]int, need-int64(len(q.net)))...)
	}
	for r := range ua {
		q.net[q.slot(ua[r])-q.base]++
		q.net[q.slot(ud[r])-q.base]--
	}
}

// first is the first sample: the grid point at or before the earliest
// instant, so queue samples share window timestamps with resource series
// (correlation aligns on them).
func (q *Queue) first() int64 { return q.lo - mod(q.lo, q.stepUS) }

// slot is the grid index of the first sample that sees instant t.
func (q *Queue) slot(t int64) int64 { return (t + mod(-t, q.stepUS)) / q.stepUS }

// Points samples the queue length every step: at each instant, arrivals so
// far less departures so far (an arrival and a departure at the same
// instant cancel, whichever the log recorded first). The last sample is
// the final instant, after the last departure (queue back at its residual
// level).
func (q *Queue) Points() ([]Point, error) {
	if q.stepUS <= 0 {
		return nil, fmt.Errorf("metrics: step %v is below one microsecond", q.step)
	}
	if q.n == 0 {
		return nil, nil
	}
	first := q.first()
	if err := checkGrid(q.hi-first, q.stepUS, "a queue"); err != nil {
		return nil, err
	}
	out := make([]Point, 0, (q.hi-first)/q.stepUS+2)
	n, k := 0, first/q.stepUS-q.base
	at := first
	for ; at <= q.hi; at, k = at+q.stepUS, k+1 {
		n += q.net[k]
		out = append(out, Point{AtMicros: at, N: n})
	}
	if at-q.stepUS != q.hi {
		out = append(out, Point{AtMicros: q.hi, N: 0}) // every row has arrived and departed
	}
	return out, nil
}

// QueueSeries computes the instantaneous number of resident requests at a
// tier from its event table (arrival = ua, departure = ud), sampled every
// step. This is the metric the paper derives from the event monitors
// without sampling loss; Figure 9 reads it, and core.BuildEvidence builds
// the same series through Queue for the diagnosis Figures 6 and 8b render.
func QueueSeries(tbl *mscopedb.Table, step time.Duration) ([]Point, error) {
	q := NewQueue(step)
	if err := scanSpans(tbl, q.Add); err != nil {
		return nil, err
	}
	return q.Points()
}

// PointsToSeries converts a queue-point list into a Series for correlation
// with resource series.
func PointsToSeries(pts []Point) *mscopedb.Series {
	var s mscopedb.Series
	for _, p := range pts {
		s.StartMicros = append(s.StartMicros, p.AtMicros)
		s.Values = append(s.Values, float64(p.N))
	}
	return &s
}

// LittlesLawReport cross-checks an event table against Little's law:
// mean queue length must equal arrival rate × mean residence time. A large
// relative error means the monitor dropped or duplicated records — the
// framework's own self-validation.
type LittlesLawReport struct {
	// Lambda is the arrival rate (requests per second).
	Lambda float64
	// MeanResidence is the mean UD-UA.
	MeanResidence time.Duration
	// MeanQueue is the time-averaged queue length integrated from events.
	MeanQueue float64
	// RelativeError is |L - λW| / L.
	RelativeError float64
}

// LittlesLaw computes the report from one tier's event table.
func LittlesLaw(tbl *mscopedb.Table) (*LittlesLawReport, error) {
	n := tbl.Rows()
	var sumRes float64
	var lo, hi int64
	first := true
	err := scanSpans(tbl, func(uas, uds []int64) {
		for r, ua := range uas {
			ud := uds[r]
			sumRes += float64(ud - ua)
			if first || ua < lo {
				lo = ua
			}
			if first || ud > hi {
				hi = ud
			}
			first = false
		}
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("metrics: %s is empty", tbl.Name())
	}
	spanUS := float64(hi - lo)
	if spanUS <= 0 {
		return nil, fmt.Errorf("metrics: %s spans zero time", tbl.Name())
	}
	rep := &LittlesLawReport{
		Lambda:        float64(n) / (spanUS / 1e6),
		MeanResidence: time.Duration(sumRes/float64(n)) * time.Microsecond,
		// Time-averaged queue = total residence / observation span.
		MeanQueue: sumRes / spanUS,
	}
	lw := rep.Lambda * rep.MeanResidence.Seconds()
	if rep.MeanQueue > 0 {
		rep.RelativeError = abs(rep.MeanQueue-lw) / rep.MeanQueue
	}
	return rep, nil
}

// checkGrid refuses a series of more than mscopedb.MaxGridBuckets
// windows of widthUS over spanUS, the cap WindowAgg applies: both grids
// are laid out flat, one slot per window.
func checkGrid(spanUS, widthUS int64, what string) error {
	if spanUS/widthUS >= mscopedb.MaxGridBuckets {
		return fmt.Errorf("metrics: %v windows over %s make a grid of more than %d buckets",
			time.Duration(widthUS)*time.Microsecond, what, mscopedb.MaxGridBuckets)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
