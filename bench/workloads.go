package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

// The four workloads, in the order BENCHMARK.json lists them.
const (
	wlBatch = "batch-ingest"
	wlLive  = "live-replay"
	wlDist  = "dist-ingest"
	wlQuery = "query-mix"
)

var workloadNames = []string{wlBatch, wlLive, wlDist, wlQuery}

// End-to-end metric names, as in BENCHMARK.json. Every workload reports
// every one of them; README.md says what each means on each workload.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mAllocs     = "allocs_per_unit"
	mStored     = "stored_bytes_per_row"
	mLatP50     = "latency_ms_p50"
	mLatP95     = "latency_ms_p95"
)

var endToEndUnits = map[string]string{
	mSetup: "s", mThroughput: "1/s", mAllocs: "count", mStored: "B",
	mLatP50: "ms", mLatP95: "ms",
}

// runOut is one workload's measurement.
type runOut struct {
	Metrics map[string]summary `json:"metrics"`
	// Info carries the counts behind the metrics: rows, repetitions,
	// alerts, generator lateness.
	Info map[string]float64 `json:"info"`
	tally
	// Invalid is set when the measurement should not be trusted (the paced
	// generator ran more than a tick late); the numbers are still written.
	Invalid string `json:"invalid,omitempty"`
}

func newRunOut() *runOut {
	return &runOut{Metrics: map[string]summary{}, Info: map[string]float64{}}
}

// scale multiplies a metric's value and quartiles by f.
func (o *runOut) scale(name string, f float64) {
	s := o.Metrics[name]
	s.Value, s.Q1, s.Q3 = s.Value*f, s.Q1*f, s.Q3*f
	o.Metrics[name] = s
}

// atReferenceSpeed restates the run's timings as a machine of slowness 1
// would have measured them (see calib.go), keeping the raw medians in
// Info. Latencies that are waiting and not work (live-replay's detection
// latency, nearly all of it configured grace) stay as measured.
func (o *runOut) atReferenceSpeed(slowness float64, latencyIsWork bool) {
	o.Info["machine_slowness"] = slowness
	o.Info["raw_throughput_per_s"] = o.Metrics[mThroughput].Value
	o.scale(mThroughput, slowness)
	if latencyIsWork {
		o.Info["raw_latency_ms_p50"] = o.Metrics[mLatP50].Value
		o.scale(mLatP50, 1/slowness)
		o.scale(mLatP95, 1/slowness)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meter measures one repetition: wall time and heap allocations since
// start. The garbage is collected first so every repetition starts from
// the same heap.
type meter struct {
	start time.Time
	m0    runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.start = time.Now()
	return m
}

// stop returns the wall time and the mallocs and bytes allocated since
// startMeter.
func (m *meter) stop() (time.Duration, uint64, uint64) {
	d := time.Since(m.start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m.m0.Mallocs, m1.TotalAlloc - m.m0.TotalAlloc
}

// repLoop calls rep until the budget is spent, at least minReps times. It
// stops early when the next repetition, taken to last as long as the
// slowest so far, would overrun. The machine's speed is probed before
// every repetition.
func repLoop(budget time.Duration, minReps int, speed *speedometer, rep func(i int) error) (int, error) {
	deadline := time.Now().Add(budget)
	var longest time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Now().Add(longest).After(deadline) {
			return i, nil
		}
		start := time.Now()
		speed.probe()
		if err := rep(i); err != nil {
			return i, err
		}
		longest = max(longest, time.Since(start))
	}
}

// ingestLoop is the repetition loop the three ingest workloads share. Each
// repetition opens a fresh on-disk warehouse, has load fill and commit it,
// and, when diagnose is set, diagnoses it; then, off the clock, compares
// the tables scope admits (and the verdict) with the reference. The
// throughput, allocation and storage metrics are the medians over the
// repetitions; the times to verdict are returned for the caller's latency
// metrics.
func ingestLoop(out *runOut, fx *fixture, root, what string, budget time.Duration, p params,
	scope func(string) bool, diagnose bool, load func(db *mscopedb.DB, dir string) error) ([]float64, error) {
	var rowsPerS, allocsPerRow, bytesPerRow, verdictMS []float64
	_, err := repLoop(budget, p.minReps(), p.speed, func(i int) error {
		dir := filepath.Join(root, fmt.Sprintf("rep-%d", i))
		defer os.RemoveAll(dir)
		whDir := filepath.Join(dir, "wh")
		rep := fmt.Sprintf("%s rep %d", what, i)
		m := startMeter()
		db, err := mscopedb.OpenDir(whDir, mscopedb.StoreOptions{})
		if err != nil {
			return err
		}
		if err := load(db, dir); err != nil {
			return err
		}
		durable, mallocs, _ := m.stop()
		if diagnose {
			d, err := core.Diagnose(db, detectWindow)
			if err != nil {
				return err
			}
			verdictMS = append(verdictMS, ms(time.Since(m.start)))
			fx.ref.checkVerdict(&out.tally, rep, d)
		}
		disk, err := dirBytes(whDir)
		if err != nil {
			return err
		}
		rows := float64(dataRows(db))
		rowsPerS = append(rowsPerS, rows/durable.Seconds())
		allocsPerRow = append(allocsPerRow, float64(mallocs)/rows)
		bytesPerRow = append(bytesPerRow, float64(disk)/rows)
		out.Info["rows"] = rows
		fx.ref.checkTables(&out.tally, rep, db, scope)
		return nil
	})
	out.Metrics[mThroughput] = summarize(rowsPerS, endToEndUnits[mThroughput])
	out.Metrics[mAllocs] = summarize(allocsPerRow, endToEndUnits[mAllocs])
	out.Metrics[mStored] = summarize(bytesPerRow, endToEndUnits[mStored])
	out.Info["reps"] = float64(len(rowsPerS))
	return verdictMS, err
}

// fillLatency writes both latency metrics from one sample set.
func fillLatency(out *runOut, samplesMS []float64) {
	sum := summarize(samplesMS, endToEndUnits[mLatP50])
	out.Metrics[mLatP50] = sum
	sum.Value = p95OrMedian(samplesMS)
	out.Metrics[mLatP95] = sum
}

// dataRows counts the rows of a warehouse's data tables.
func dataRows(db *mscopedb.DB) int {
	n := 0
	for _, name := range db.TableNames() {
		if !isDataTable(name) {
			continue
		}
		if t, err := db.Table(name); err == nil {
			n += t.Rows()
		}
	}
	return n
}

// runBatch is batch-ingest: the `mscope ingest --spill-dir && mscope
// diagnose` user. One caller, closed loop; each repetition ingests
// corpus-bulk with default options into a fresh on-disk warehouse, commits
// it and diagnoses it.
func runBatch(fx *fixture, root string, p params) (*runOut, error) {
	out := newRunOut()
	all := func(string) bool { return true }
	verdictMS, err := ingestLoop(out, fx, root, wlBatch, p.budget(), p, all, true,
		func(db *mscopedb.DB, dir string) error {
			if _, err := transform.IngestDirWithOptions(db, fx.logDir, filepath.Join(dir, "work"),
				transform.DefaultPlan(), transform.Options{}); err != nil {
				return err
			}
			return db.Checkpoint()
		})
	fillLatency(out, verdictMS)
	return out, err
}

// distGroups is how dist-ingest splits the four nodes' logs over its two
// agents.
var distGroups = [][]string{{"apache", "tomcat"}, {"cjdbc", "mysql"}}

func ownHosts(hosts []string) func(string) bool {
	return func(name string) bool {
		for _, h := range hosts {
			if strings.HasPrefix(name, h+"_") {
				return true
			}
		}
		return false
	}
}

// distStats is what one distributed ingest leaves behind for the layer
// ledger.
type distStats struct {
	agents    []agentd.Status
	collector collector.Status
}

// distOnce ships logDir through two agents and loopback TCP into a
// collector whose engine loads db: start, wait until every source is
// adopted, drain the agents, stop the collector.
func distOnce(logDir string, db *mscopedb.DB) (*distStats, error) {
	col, err := collector.New(collector.Config{Network: "tcp", Addr: "127.0.0.1:0",
		Engine: stream.Config{DB: db}})
	if err != nil {
		return nil, err
	}
	if err := col.Start(); err != nil {
		return nil, err
	}
	sources, err := streamableFiles(logDir)
	if err != nil {
		col.Stop()
		return nil, err
	}
	var agents []*agentd.Agent
	for i, hosts := range distGroups {
		a, err := agentd.New(agentd.Config{ID: fmt.Sprintf("agent-%d", i),
			Addr: col.Addr().String(), LogDir: logDir, Own: ownHosts(hosts)})
		if err != nil {
			col.Stop()
			return nil, err
		}
		a.Start()
		agents = append(agents, a)
	}
	// An agent stopped before it dialled ships nothing, so wait for the
	// collector to have adopted every source before draining.
	deadline := time.Now().Add(60 * time.Second)
	for col.Status().Opens < int64(len(sources)) {
		if time.Now().After(deadline) {
			for _, a := range agents {
				a.Kill()
			}
			col.Stop()
			return nil, fmt.Errorf("dist: collector adopted %d of %d sources in 60s",
				col.Status().Opens, len(sources))
		}
		time.Sleep(time.Millisecond)
	}
	st := &distStats{}
	var firstErr error
	for _, a := range agents {
		if err := a.Stop(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dist: agent drain: %w", err)
		}
		st.agents = append(st.agents, a.Status())
	}
	if err := col.Stop(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("dist: collector stop: %w", err)
	}
	st.collector = col.Status()
	return st, firstErr
}

// streamableFiles lists the files of dir the live and distributed paths
// tail.
func streamableFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	plan := transform.DefaultPlan()
	var names []string
	for _, e := range entries {
		if !e.IsDir() && stream.Streamable(plan, e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// runDist is dist-ingest: two agents, one collector, one warehouse on
// disk, then the diagnosis an operator would ask of it. Closed loop.
func runDist(fx *fixture, root string, p params) (*runOut, error) {
	out := newRunOut()
	verdictMS, err := ingestLoop(out, fx, root, wlDist, p.budget(), p, isStreamedTable, true,
		func(db *mscopedb.DB, _ string) error {
			st, err := distOnce(fx.logDir, db)
			if err == nil {
				out.Info["wire_bytes_per_row"] = float64(st.collector.WireRxBytes) / float64(dataRows(db))
			}
			return err
		})
	fillLatency(out, verdictMS)
	return out, err
}

// drainOnce loads logDir through the streaming pipeline over static files:
// Start, then Stop, which tails every file to its end, parses, appends,
// classifies the final windows and commits.
func drainOnce(logDir string, db *mscopedb.DB) (*stream.Pipeline, error) {
	pipe, err := stream.New(stream.Config{LogDir: logDir, DB: db})
	if err != nil {
		return nil, err
	}
	pipe.Start()
	return pipe, pipe.Stop()
}

// drainShare is the part of live-replay's time spent on the drain phase;
// the paced phase, whose length is the live corpus's, takes the rest.
const drainShare = 0.3

// minPaced is the shortest corpus-live that still carries a fault whose
// alert is raised online.
const minPaced = 6 * time.Second

// pacedDuration is how long the paced phase (and so corpus-live) lasts.
func pacedDuration(p params) time.Duration {
	d := time.Duration(float64(p.seconds)*(1-drainShare)) * time.Second
	if p.quick {
		d = 0
	}
	return max(d, minPaced)
}

// pacedTick is the generator's write cadence, stream.Producer's default.
const pacedTick = 10 * time.Millisecond

// pacedResult is what the paced phase measured.
type pacedResult struct {
	latencyMS []float64 // per matched reference window
	lateMS    []float64 // generator lateness per write
	alerts    []stream.Alert
	// catchup is how long after the generator's last write the pipeline
	// had loaded every reference row.
	catchup time.Duration
	stalls  int64 // backpressure stalls over the whole phase
}

// runPaced replays corpus-live on the open-loop schedule into a directory
// a fresh pipeline tails with default poll, grace and skew. Every alert is
// timed from when its fault window's end was due on disk. wall is the
// replay's length; wall == the corpus's simulated length is 1x. sample,
// when set, runs concurrently with the replay and stops when done closes
// (the traced run samples Pipeline.Status there).
func runPaced(fx *fixture, root string, wall time.Duration, t *tally,
	sample func(p *stream.Pipeline, done <-chan struct{})) (*pacedResult, error) {
	dst := filepath.Join(root, "paced-logs")
	defer os.RemoveAll(dst)
	pc, err := newPacer(fx.logDir, dst)
	if err != nil {
		return nil, err
	}
	// The warehouse is `mscope live`'s default, in memory: one on disk
	// would fsync into the file system the generator is appending to, and
	// its stalls would be charged to the pipeline as detection latency.
	db := mscopedb.Open()
	pipe, err := stream.New(stream.Config{LogDir: dst, DB: db})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	pipe.Start()
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if sample != nil {
			sample(pipe, done)
		}
	}()
	sched := schedule{Start: time.Now().Add(5 * pacedTick), Wall: wall, Sim: fx.spec.Sim, Tick: pacedTick}
	late, runErr := pc.run(sched)
	genEnd := time.Now()
	// Watch the pipeline catch up with the last bytes before the drain at
	// Stop hides how far behind it was.
	waitRows(pipe, int64(fx.ref.rows(isStreamedTable)), 10*time.Second)
	res := &pacedResult{catchup: time.Since(genEnd)}
	close(done)
	<-sampled
	stopErr := pipe.Stop()
	if runErr != nil {
		return nil, runErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	for _, l := range late {
		res.lateMS = append(res.lateMS, ms(l))
	}
	res.alerts, res.stalls = pipe.Alerts(), pipe.Status().Stalls
	matched, spurious := matchAlerts(fx.ref.windows, res.alerts, detectWindow.Microseconds())
	for i, j := range matched {
		w := fx.ref.windows[i]
		t.check(j >= 0, "%s paced: no alert for %s@%s ending at %v", wlLive, w.Kind, w.Node,
			eventOffset(w.Window.EndMicros))
		if j >= 0 {
			due := sched.dueOfEvent(eventOffset(w.Window.EndMicros))
			res.latencyMS = append(res.latencyMS, ms(res.alerts[j].Raised.Sub(due)))
		}
	}
	for _, j := range spurious {
		d := res.alerts[j].Diagnosis
		t.fail("%s paced: spurious alert %s@%s ending at %v", wlLive, d.Kind, d.Node,
			eventOffset(d.Window.EndMicros))
	}
	fx.ref.checkTables(t, wlLive+" paced", db, isStreamedTable)
	return res, nil
}

// waitRows polls until the pipeline has loaded want rows or the timeout
// passes.
func waitRows(p *stream.Pipeline, want int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for p.Status().Rows < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// runLive is live-replay, in two phases. paced: corpus-live written over
// pacedWall (the corpus's own length is 1x) while the pipeline tails it,
// which is where fault-to-alert delay is measured. drain: saturation
// throughput of tail, parse, append, watermark and detect over the same
// corpus as static files. The paced phase goes first: the drain's fsyncs
// leave the file system busy for a while, and a generator stalled behind
// them would make the run invalid.
func runLive(fx *fixture, root string, p params) (*runOut, error) {
	out := newRunOut()
	pacedWall := p.pacedWall(fx.spec.Sim)
	res, err := runPaced(fx, root, pacedWall, &out.tally, nil)
	if err != nil {
		return out, err
	}
	fillLatency(out, res.latencyMS)
	out.Info["alerts"] = float64(len(res.alerts))
	late := percentile(res.lateMS, 99)
	out.Info["gen_late_ms_p99"] = late
	if late > ms(pacedTick) {
		out.Invalid = fmt.Sprintf("paced generator ran %.1f ms late at p99, more than its %v tick", late, pacedTick)
	}

	_, err = ingestLoop(out, fx, root, wlLive+" drain", p.budget()-pacedWall, p, isStreamedTable, false,
		func(db *mscopedb.DB, _ string) error {
			_, err := drainOnce(fx.logDir, db)
			return err
		})
	return out, err
}
