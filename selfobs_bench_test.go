package milliscope_test

import (
	"os"
	"sort"
	"testing"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
)

// BenchmarkSelfObsOverhead measures what the self-observability layer
// costs the pipeline it observes: paired parallel ingests of the same
// corpus, telemetry disabled then enabled, interleaved so cache and
// scheduler drift hit both arms equally. The headline metric is the
// median paired ratio expressed as a percentage; `make overhead-check`
// fails if it exceeds the absolute ceiling in BENCH_selfobs.json (3%).
// The disabled path's zero-allocation guarantee is proven separately by
// testing.AllocsPerRun in internal/selfobs.
func BenchmarkSelfObsOverhead(b *testing.B) {
	logs := logCorpus(b)
	runOnce := func(instrumented bool) time.Duration {
		work := tmp(b, "selfobs")
		defer os.RemoveAll(work)
		if instrumented {
			selfobs.Enable("bench", time.Now().UTC())
			defer selfobs.Disable()
		}
		db := milliscope.OpenDB()
		start := time.Now()
		rep, err := transform.IngestDirWithOptions(db, logs, work,
			milliscope.DefaultPlan(), transform.Options{Workers: 4})
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalRows() == 0 {
			b.Fatal("ingest loaded nothing")
		}
		return elapsed
	}
	// One untimed pair primes the page cache for both arms.
	runOnce(false)
	runOnce(true)
	ratios := make([]float64, 0, b.N)
	var offNS, onNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := runOnce(false)
		on := runOnce(true)
		offNS += off.Nanoseconds()
		onNS += on.Nanoseconds()
		ratios = append(ratios, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if n := len(ratios); n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	b.ReportMetric(median*100-100, "overhead_pct")
	b.ReportMetric(float64(offNS)/float64(b.N), "disabled_ns")
	b.ReportMetric(float64(onNS)/float64(b.N), "instrumented_ns")
}
