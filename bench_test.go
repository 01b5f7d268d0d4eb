// Pipeline benchmarks: the whole framework path for a small trial, and
// the batch, worker-scaled, streaming and distributed ingests over one
// corpus. `make profile-ingest` profiles BenchmarkIngestBatch. The paper's
// figures and ablations are not here: `mscope experiment` and the
// TestPaperClaims gate in internal/core compute them.
package milliscope_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

func tmp(b *testing.B, label string) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "mscope-bench-"+label+"-")
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkEndToEndPipeline measures the whole framework path — simulate,
// monitor, transform, load — for a small trial, the number a user sizing a
// deployment cares about.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := milliscope.ScenarioDBIO(tmp(b, "e2e"))
		cfg.Ntier.Users = 60
		cfg.Ntier.Duration = 2 * time.Second
		cfg.Injectors = nil
		res, err := milliscope.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		db, rep, err := res.Ingest(tmp(b, "e2e-work"))
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalRows() == 0 {
			b.Fatal("no rows")
		}
		if _, err := db.Table("apache_event"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming pipeline benchmarks ---

var (
	corpusOnce sync.Once
	corpusDir  string
	corpusErr  error
)

// logCorpus stages one Section V-A trial and keeps only its streamable
// monitor logs (the four event logs and four collectl CSVs), so the batch
// and streaming ingests below consume exactly the same rows.
func logCorpus(b *testing.B) string {
	b.Helper()
	corpusOnce.Do(func() {
		base, err := os.MkdirTemp("", "mscope-bench-corpus-")
		if err != nil {
			corpusErr = err
			return
		}
		raw := filepath.Join(base, "raw")
		if _, err := milliscope.RunExperiment(milliscope.ScenarioDBIO(raw)); err != nil {
			corpusErr = err
			return
		}
		corpusDir = filepath.Join(base, "corpus")
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			corpusErr = err
			return
		}
		plan := milliscope.DefaultPlan()
		entries, err := os.ReadDir(raw)
		if err != nil {
			corpusErr = err
			return
		}
		for _, e := range entries {
			if e.IsDir() || !stream.Streamable(plan, e.Name()) {
				continue
			}
			data, err := os.ReadFile(filepath.Join(raw, e.Name()))
			if err != nil {
				corpusErr = err
				return
			}
			if err := os.WriteFile(filepath.Join(corpusDir, e.Name()), data, 0o644); err != nil {
				corpusErr = err
				return
			}
		}
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpusDir
}

// BenchmarkIngestBatch measures the offline workflow over the streamable
// corpus as bench/'s batch-ingest workload runs it: default options, a fresh
// warehouse directory, every file parsed whole, typed and installed, full
// segments spilled as they fill, and the closing checkpoint; no staged
// XML/CSV is written. It is the target of `make profile-ingest`, so the
// profile and the gated batch-ingest numbers describe the same program.
func BenchmarkIngestBatch(b *testing.B) {
	logs := logCorpus(b)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work, store := tmp(b, "batch-work"), tmp(b, "batch-db")
		b.StartTimer()
		db, err := mscopedb.OpenDir(store, mscopedb.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := transform.IngestDirWithOptions(db, logs, work, milliscope.DefaultPlan(), transform.Options{})
		if err == nil {
			err = db.Checkpoint()
		}
		if err != nil {
			b.Fatal(err)
		}
		rows = rep.TotalRows()
		b.StopTimer()
		os.RemoveAll(work)
		os.RemoveAll(store)
		b.StartTimer()
	}
	if rows == 0 {
		b.Fatal("batch ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkIngestWorkers draws the worker-count scaling curve of the one
// ingest engine over the same corpus at --workers of 1, 2 and 4: w=1
// parses one file at a time (BenchmarkIngestBatch's work less the store), w>1
// that many at once. The warehouse is identical at every point
// (TestEngineMatchesOracle). With fewer cores than workers the curve is
// expected flat: extra workers cannot add cycles, so its value is catching
// coordination that makes w=4 slower than w=1. bench/ reports the ratio as
// transform.workers_speedup_x.
func BenchmarkIngestWorkers(b *testing.B) {
	logs := logCorpus(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			var rows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := tmp(b, "workers-work")
				b.StartTimer()
				db := milliscope.OpenDB()
				rep, err := transform.IngestDirWithOptions(db, logs, work, milliscope.DefaultPlan(),
					transform.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				rows = rep.TotalRows()
				b.StopTimer()
				os.RemoveAll(work)
				b.StartTimer()
			}
			if rows == 0 {
				b.Fatal("ingest loaded nothing")
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkIngestStreaming measures the live pipeline over the same corpus:
// tail, parse and append rows in one pass with no intermediate files, plus
// the online detector's bookkeeping — the cost of `mscope live` per row.
// With static files, Start followed by Stop is one complete drain.
func BenchmarkIngestStreaming(b *testing.B) {
	logs := logCorpus(b)
	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := stream.New(stream.Config{LogDir: logs})
		if err != nil {
			b.Fatal(err)
		}
		pipe.Start()
		if err := pipe.Stop(); err != nil {
			b.Fatal(err)
		}
		rows = pipe.Status().Rows
	}
	if rows == 0 {
		b.Fatal("streaming ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkIngestDistributed measures the agent/collector split over the
// same corpus: four per-node agents tail, parse and ship their own tier's
// logs over loopback TCP to one collector feeding the shared streaming
// engine. Against BenchmarkIngestStreaming this prices the wire hop —
// framing, credit flow control, acks — and reports bytes on the wire per
// warehouse row, the number a deployment's network budget cares about.
func BenchmarkIngestDistributed(b *testing.B) {
	logs := logCorpus(b)
	hosts := []string{"apache", "cjdbc", "mysql", "tomcat"}
	var rows, wireB int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := collector.New(collector.Config{
			Network: "tcp", Addr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := col.Start(); err != nil {
			b.Fatal(err)
		}
		agents := make([]*agentd.Agent, 0, len(hosts))
		for _, h := range hosts {
			host := h
			a, err := agentd.New(agentd.Config{
				ID:     "bench-" + host,
				Addr:   col.Addr().String(),
				LogDir: logs,
				Poll:   2 * time.Millisecond,
				Own:    func(name string) bool { return strings.HasPrefix(name, host+"_") },
			})
			if err != nil {
				b.Fatal(err)
			}
			a.Start()
			agents = append(agents, a)
		}
		// A Stop before the agent's first dial would drain nothing: wait
		// until every source is adopted, then drain (tail to EOF, ship,
		// await every ack, Goodbye).
		for col.Status().Opens < int64(2*len(hosts)) {
			time.Sleep(time.Millisecond)
		}
		for _, a := range agents {
			if err := a.Stop(); err != nil {
				b.Fatal(err)
			}
		}
		if err := col.Stop(); err != nil {
			b.Fatal(err)
		}
		rows = col.Pipeline().Status().Rows
		wireB = col.Status().WireRxBytes
	}
	if rows == 0 {
		b.Fatal("distributed ingest loaded nothing")
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(wireB)/float64(rows), "wire_B/row")
}
