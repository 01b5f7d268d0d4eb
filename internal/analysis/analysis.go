// Package analysis implements the diagnostic layer of milliScope: very
// short bottleneck (VSB) detection, cross-tier pushback detection, and
// resource–queue correlation for root-cause ranking (paper Section V).
package analysis

import (
	"fmt"
	"math"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Window is a contiguous anomalous interval.
type Window struct {
	StartMicros int64
	EndMicros   int64
	Peak        float64
}

// Duration returns the window length.
func (w Window) Duration() time.Duration {
	return time.Duration(w.EndMicros-w.StartMicros) * time.Microsecond
}

// pearson computes the correlation coefficient of two equal-length
// vectors. It returns 0 when either vector is constant.
func pearson(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("analysis: pearson over %d vs %d points", len(a), len(b)))
	}
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Align intersects two series on their window timestamps, returning the
// paired values. Series sampled by different monitors rarely share every
// window, so correlation runs on the intersection.
func Align(a, b *mscopedb.Series) (x, y []float64) {
	bv := make(map[int64]float64, len(b.StartMicros))
	for i, t := range b.StartMicros {
		bv[t] = b.Values[i]
	}
	for i, t := range a.StartMicros {
		if v, ok := bv[t]; ok {
			x = append(x, a.Values[i])
			y = append(y, v)
		}
	}
	return x, y
}

// Correlate aligns two series and returns their Pearson correlation and
// the number of overlapping windows.
func Correlate(a, b *mscopedb.Series) (float64, int) {
	x, y := Align(a, b)
	return pearson(x, y), len(x)
}

// CrossCorrelate computes the Pearson correlation at integer window lags
// in [-maxLag, +maxLag] (shifting b later in time for positive lags) and
// returns the best coefficient with its lag. Queue lengths respond to a
// resource seizure with a delay — the queue builds while the resource is
// held and drains afterwards — so the peak correlation sits at a small
// positive lag.
func CrossCorrelate(a, b *mscopedb.Series, maxLag int) (best float64, bestLag int) {
	if len(b.StartMicros) < 2 || maxLag < 0 {
		c, _ := Correlate(a, b)
		return c, 0
	}
	width := b.StartMicros[1] - b.StartMicros[0]
	for lag := -maxLag; lag <= maxLag; lag++ {
		shifted := &mscopedb.Series{Values: b.Values}
		shifted.StartMicros = make([]int64, len(b.StartMicros))
		for i, t := range b.StartMicros {
			shifted.StartMicros[i] = t - int64(lag)*width
		}
		c, n := Correlate(a, shifted)
		if n >= 3 && c > best {
			best = c
			bestLag = lag
		}
	}
	return best, bestLag
}

// SliceSeries restricts a series to [startUS, endUS].
func SliceSeries(s *mscopedb.Series, startUS, endUS int64) *mscopedb.Series {
	var out mscopedb.Series
	for i, t := range s.StartMicros {
		if t >= startUS && t <= endUS {
			out.StartMicros = append(out.StartMicros, t)
			out.Values = append(out.Values, s.Values[i])
		}
	}
	return &out
}

// seriesStats returns mean of a series' values.
func seriesMean(s *mscopedb.Series) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// PushbackResult reports which tiers' queues grew during a window.
type PushbackResult struct {
	// Grew lists tiers (in the given order) whose in-window mean queue
	// exceeded growthFactor × their out-of-window mean.
	Grew []string
	// CrossTier is true when at least two adjacent tiers grew — the queue
	// amplification signature of Figures 6 and 8b.
	CrossTier bool
}

// DetectPushback classifies queue growth across tiers during an anomaly
// window. tierOrder is front to back; queues maps tier → queue series.
func DetectPushback(queues map[string]*mscopedb.Series, tierOrder []string, w Window, growthFactor float64) PushbackResult {
	var res PushbackResult
	grew := make(map[string]bool)
	for _, tier := range tierOrder {
		s, ok := queues[tier]
		if !ok {
			continue
		}
		in := seriesMean(SliceSeries(s, w.StartMicros, w.EndMicros))
		// Baseline: everything outside the window.
		var outSum float64
		var outN int
		for i, t := range s.StartMicros {
			if t < w.StartMicros || t > w.EndMicros {
				outSum += s.Values[i]
				outN++
			}
		}
		if outN == 0 {
			continue
		}
		base := outSum / float64(outN)
		if base < 0.5 {
			base = 0.5 // avoid near-zero baselines declaring trivial growth
		}
		if in > growthFactor*base {
			grew[tier] = true
			res.Grew = append(res.Grew, tier)
		}
	}
	for i := 0; i+1 < len(tierOrder); i++ {
		if grew[tierOrder[i]] && grew[tierOrder[i+1]] {
			res.CrossTier = true
			break
		}
	}
	return res
}

// Cause is one ranked root-cause candidate.
type Cause struct {
	// Name identifies the resource series ("mysql disk", ...).
	Name string
	// Correlation with the front-tier queue over the analysis range.
	Correlation float64
	// PeakInWindow is the resource's peak value inside the anomaly window.
	PeakInWindow float64
}
