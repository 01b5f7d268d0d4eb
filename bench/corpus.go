package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/bottleneck"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

// detectWindow is the Point-in-Time window every diagnosis in the harness
// uses: the detector's and `mscope diagnose`'s default.
const detectWindow = 50 * time.Millisecond

// corpusSpec describes one simulated trial: the Section V-A system (a
// redo-log flush seizing the MySQL disk) with the flush recurring, so one
// trial carries several very short bottlenecks.
type corpusSpec struct {
	Users       int
	Sim         time.Duration
	FaultStart  time.Duration
	FaultPeriod time.Duration
	FaultLen    time.Duration
	Faults      int
}

// bulkSpec is corpus-bulk: 40 simulated seconds at 150 users, a 300 ms
// flush every 5 s. About 123k rows in 12 log files; the two largest event
// tables seal four default-size segments each, the least that gives
// zone-map pruning and compaction something to do. (ISSUE 12 asked for
// 120 s; the run budget of BENCHMARK.json pays for a third of that.)
func bulkSpec(quick bool) corpusSpec {
	s := corpusSpec{Users: 150, Sim: 40 * time.Second,
		FaultStart: 3 * time.Second, FaultPeriod: 5 * time.Second, FaultLen: 300 * time.Millisecond}
	if quick {
		s.Users, s.Sim = 40, 6*time.Second
	}
	s.Faults = 1 + int((s.Sim-s.FaultStart-2*time.Second)/s.FaultPeriod)
	return s
}

// alertHorizon is how much trial must follow a fault's start for its alert
// to be raised online: the fault itself and the queue it leaves (0.4 s),
// then ClassifyPad + DefaultGrace + skew + one window of watermark (3.1 s),
// and slack for the replay to deliver the evidence.
const alertHorizon = 3900 * time.Millisecond

// liveSpec is corpus-live: the same system over sim seconds, flushing
// every 1.5 s from t=1 s for as long as the alert can still be raised
// before the trial ends. The flush period is the shortest at which batch
// diagnosis still finds one window per flush.
func liveSpec(sim time.Duration, quick bool) corpusSpec {
	s := corpusSpec{Users: 150, Sim: sim,
		FaultStart: time.Second, FaultPeriod: 1500 * time.Millisecond, FaultLen: 300 * time.Millisecond}
	if quick {
		s.Users = 40
	}
	s.Faults = 1 + int((sim-alertHorizon-s.FaultStart)/s.FaultPeriod)
	return s
}

// generate runs the trial and leaves its monitor logs in dir. The program
// under test only ever sees these files.
func generate(dir string, seed int64, spec corpusSpec) error {
	if spec.Faults < 1 {
		return fmt.Errorf("corpus: %v of trial leaves no room for a fault", spec.Sim)
	}
	cfg := core.ScenarioDBIO(dir)
	cfg.Name = "bench"
	cfg.Ntier.Users = spec.Users
	cfg.Ntier.Duration = spec.Sim
	cfg.Ntier.Seed = seed
	cfg.Injectors = []bottleneck.Injector{bottleneck.PeriodicDBLogFlush{
		Start: des.Time(spec.FaultStart), Period: spec.FaultPeriod,
		Duration: spec.FaultLen, Count: spec.Faults,
	}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := core.RunExperiment(cfg); err != nil {
		return err
	}
	return syncFiles(dir)
}

// syncFiles flushes every file of dir to disk. Left dirty, the corpus would
// be written back by the kernel some seconds into the measurement, and on
// a journalling file system that stalls whoever appends next: the paced
// generator, which would then look late for no fault of the pipeline's.
func syncFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// eventEpoch is the wall-clock instant the simulated trial starts at.
func eventEpoch() time.Time { return simtime.Epoch }

// eventOffset converts a warehouse timestamp (microsecond epoch) to time
// since the start of the simulated trial.
func eventOffset(us int64) time.Duration {
	return time.Duration(us-eventEpoch().UnixMicro()) * time.Microsecond
}

// fixture is what set-up hands a workload: the generated logs, the
// reference every output is checked against and, for query-mix, the
// committed warehouse directory the queries read.
type fixture struct {
	spec    corpusSpec
	logDir  string
	ref     *reference
	whDir   string
	whBytes int64
}

// setUp builds a fixture under dir: generate the corpus, ingest it serially
// into an in-memory warehouse (the reference) and, when spill is set,
// ingest it once more into a committed on-disk warehouse.
func setUp(dir string, seed int64, spec corpusSpec, spill bool) (*fixture, error) {
	fx := &fixture{spec: spec, logDir: filepath.Join(dir, "logs")}
	if err := generate(fx.logDir, seed, spec); err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	ref, err := buildReference(fx.logDir, filepath.Join(dir, "ref-work"))
	if err != nil {
		return nil, fmt.Errorf("build reference: %w", err)
	}
	fx.ref = ref
	if spill {
		fx.whDir = filepath.Join(dir, "warehouse")
		db, err := mscopedb.OpenDir(fx.whDir, mscopedb.StoreOptions{})
		if err != nil {
			return nil, err
		}
		if _, err := transform.IngestDirWithOptions(db, fx.logDir, filepath.Join(dir, "wh-work"),
			transform.DefaultPlan(), transform.Options{}); err != nil {
			return nil, err
		}
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		if fx.whBytes, err = dirBytes(fx.whDir); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// setUpTimed runs setUp repeat times in sibling directories and returns the
// last fixture with every repetition's wall time, so setup_s is a median
// and not one cold measurement. Earlier repetitions are deleted. The
// machine's speed is probed before every repetition.
func setUpTimed(root string, repeat int, seed int64, spec corpusSpec, spill bool, speed *speedometer) (*fixture, []float64, error) {
	var fx *fixture
	var secs []float64
	for i := 0; i < repeat; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		speed.probe()
		start := time.Now()
		f, err := setUp(dir, seed, spec, spill)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < repeat-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		fx = f
	}
	return fx, secs, nil
}

// fileSizes maps the name of every regular file directly inside dir to its
// size.
func fileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		if info.Mode().IsRegular() {
			out[e.Name()] = info.Size()
		}
	}
	return out, nil
}

// dirBytes sums fileSizes: for a committed warehouse, its segments, tail
// snapshot and manifest.
func dirBytes(dir string) (int64, error) {
	sizes, err := fileSizes(dir)
	var total int64
	for _, size := range sizes {
		total += size
	}
	return total, err
}
