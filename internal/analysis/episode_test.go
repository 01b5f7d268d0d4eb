package analysis_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/metrics"
)

// The runs of VLRT windows are found by core.Episodes; these cases pin
// its run rule in terms of analysis.Window.

const bucketUS = 50_000

// runsOf is core.Episodes run to the end over one request per 50 ms
// bucket from 0, resident vals[i] µs and departing mid-bucket.
func runsOf(vals ...float64) []analysis.Window {
	e := &core.Episodes{PIT: metrics.NewPIT(bucketUS * time.Microsecond)}
	for i, v := range vals {
		ud := int64(i)*bucketUS + bucketUS/2
		e.PIT.Observe(ud-int64(v), ud)
	}
	eps, _ := e.Advance(math.MaxInt64)
	return eps
}

// buckets is n buckets of v.
func buckets(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestDetectAnomalies: each run above the threshold is one window, from
// its first bucket to the end of its last, peaking at its largest value.
func TestDetectAnomalies(t *testing.T) {
	vals := append(buckets(10, 5_000), 100_000, 120_000)
	vals = append(append(vals, buckets(4, 5_000)...), 200_000)
	ws := runsOf(append(vals, buckets(4, 5_000)...)...)
	if len(ws) != 2 {
		t.Fatalf("windows %+v", ws)
	}
	if ws[0].StartMicros != 500_000 || ws[0].EndMicros != 600_000 || ws[0].Peak != 120_000 {
		t.Fatalf("first window %+v", ws[0])
	}
	if ws[1].Peak != 200_000 {
		t.Fatalf("second window %+v", ws[1])
	}
}

// TestDetectAnomaliesMaxDuration: a run longer than MaxVSBDuration is
// dropped; a one-bucket run after it, above the raised baseline, is kept.
func TestDetectAnomaliesMaxDuration(t *testing.T) {
	long := int(core.MaxVSBDuration.Microseconds()/bucketUS) + 2
	vals := append(buckets(20, 5_000), buckets(long, 500_000)...)
	vals = append(append(vals, buckets(100-len(vals), 5_000)...), 5_000_000)
	ws := runsOf(append(vals, buckets(4, 5_000)...)...)
	if len(ws) != 1 {
		t.Fatalf("windows %+v", ws)
	}
	if ws[0].StartMicros != 5_000_000 {
		t.Fatalf("window %+v", ws[0])
	}
}

// TestDetectAnomaliesTrailingRun: a run to the last bucket ends one bucket
// past it.
func TestDetectAnomaliesTrailingRun(t *testing.T) {
	ws := runsOf(append(buckets(18, 5_000), 500_000, 500_000)...)
	if len(ws) != 1 || ws[0].EndMicros != 1_000_000 {
		t.Fatalf("trailing run %+v", ws)
	}
}

// TestDetectVLRTWindows: VLRT windows are the buckets strictly above
// VLRTFactor (10) times the baseline mean; one exactly at it is not.
func TestDetectVLRTWindows(t *testing.T) {
	vals := append(buckets(20, 5_000), core.VLRTFactor*5_000+1)
	vals = append(append(vals, buckets(9, 5_000)...), core.VLRTFactor*5_000)
	ws := runsOf(append(vals, buckets(4, 5_000)...)...)
	want := []analysis.Window{{StartMicros: 1_000_000, EndMicros: 1_050_000, Peak: core.VLRTFactor*5_000 + 1}}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("VLRT windows %+v, want %+v", ws, want)
	}
}
