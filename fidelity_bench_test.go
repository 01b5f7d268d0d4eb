package milliscope_test

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/stream"
)

var (
	cleanOnce sync.Once
	cleanDir  string
	cleanErr  error
)

// cleanCorpus stages one fault-free trial (the dbio scenario with its
// injectors disarmed) and keeps only the streamable logs — the
// steady-state traffic the degraded pipeline should almost entirely
// roll up.
func cleanCorpus(b *testing.B) string {
	b.Helper()
	cleanOnce.Do(func() {
		base, err := os.MkdirTemp("", "mscope-bench-clean-")
		if err != nil {
			cleanErr = err
			return
		}
		raw := filepath.Join(base, "raw")
		cfg := milliscope.ScenarioDBIO(raw)
		cfg.Injectors = nil
		cfg.Name = "clean"
		if _, err := milliscope.RunExperiment(cfg); err != nil {
			cleanErr = err
			return
		}
		cleanDir = filepath.Join(base, "corpus")
		if err := os.MkdirAll(cleanDir, 0o755); err != nil {
			cleanErr = err
			return
		}
		plan := milliscope.DefaultPlan()
		entries, err := os.ReadDir(raw)
		if err != nil {
			cleanErr = err
			return
		}
		for _, e := range entries {
			if e.IsDir() || !stream.Streamable(plan, e.Name()) {
				continue
			}
			data, err := os.ReadFile(filepath.Join(raw, e.Name()))
			if err != nil {
				cleanErr = err
				return
			}
			if err := os.WriteFile(filepath.Join(cleanDir, e.Name()), data, 0o644); err != nil {
				cleanErr = err
				return
			}
		}
	})
	if cleanErr != nil {
		b.Fatalf("stage clean corpus: %v", cleanErr)
	}
	return cleanDir
}

// drainFidelity runs one complete static-file live session over the clean
// corpus and returns its status.
func drainFidelity(b *testing.B, logs string, opts stream.FidelityOptions) (stream.Status, time.Duration) {
	b.Helper()
	pipe, err := stream.New(stream.Config{LogDir: logs, Fidelity: opts})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		b.Fatal(err)
	}
	return pipe.Status(), time.Since(start)
}

// BenchmarkFidelityReduction measures how many warehouse rows degraded
// mode avoids retaining on clean traffic: a full-fidelity drain versus an
// aggregate-pinned drain of the same fault-free trial. reduction_x is
// full rows over (appended + rollup) rows; `make fidelity-check` fails if
// it drops below the floor in BENCH_fidelity.json (10x).
func BenchmarkFidelityReduction(b *testing.B) {
	logs := cleanCorpus(b)
	var reduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, _ := drainFidelity(b, logs, stream.FidelityOptions{})
		agg, _ := drainFidelity(b, logs,
			stream.FidelityOptions{Mode: stream.FidelityAggregate})
		if agg.Fidelity == nil {
			b.Fatal("aggregate session reports no fidelity status")
		}
		retained := agg.Rows + agg.Fidelity.RollupRows
		if retained == 0 || full.Rows == 0 {
			b.Fatalf("degenerate drain: full=%d retained=%d", full.Rows, retained)
		}
		if agg.Alerts != 0 || full.Alerts != 0 {
			b.Fatalf("clean corpus raised alerts: full=%d aggregate=%d", full.Alerts, agg.Alerts)
		}
		reduction = float64(full.Rows) / float64(retained)
	}
	b.ReportMetric(reduction, "reduction_x")
}

// BenchmarkFidelityOverhead measures what the adaptive controller costs a
// pipeline that never degrades: paired drains of the clean corpus with
// fidelity off and in adaptive mode. A static drain floods the record
// channel (queue pressure legitimately hits 1.0), so the adaptive arm
// raises the enter threshold above the reachable score — the controller
// still evaluates pressure on every cadence, which is exactly the
// overhead under measurement; it just never commits a transition. The
// headline is the median paired ratio as a percentage; BENCH_fidelity.json
// pins its absolute ceiling.
func BenchmarkFidelityOverhead(b *testing.B) {
	logs := cleanCorpus(b)
	idle := stream.FidelityOptions{
		Mode:            stream.FidelityAdaptive,
		Enter:           1.01, // queue pressure saturates at 1.0
		LagBudget:       time.Hour,
		MaxRetainedRows: 1 << 40,
	}
	// One untimed pair primes the page cache for both arms.
	drainFidelity(b, logs, stream.FidelityOptions{})
	drainFidelity(b, logs, idle)
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, offDur := drainFidelity(b, logs, stream.FidelityOptions{})
		on, onDur := drainFidelity(b, logs, idle)
		if on.Rows != off.Rows {
			b.Fatalf("adaptive-idle drain appended %d rows, full fidelity %d — controller degraded on clean traffic",
				on.Rows, off.Rows)
		}
		ratios = append(ratios, float64(onDur)/float64(offDur))
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if n := len(ratios); n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	b.ReportMetric(median*100-100, "overhead_pct")
}
