// Command bench is milliScope's pipeline benchmark: one corpus per seed,
// four workloads (batch-ingest, live-replay, dist-ingest, query-mix), six
// end-to-end metrics each, and a traced run that prices every layer of the
// pipeline. BENCHMARK.json at the repository root declares the names,
// units, directions and regression bounds; README.md in this directory
// explains them.
//
//	bash bench/run.sh                                   every workload, tracing off
//	bash bench/run.sh --workload query-mix --seed 3     one workload
//	bash bench/run.sh --trace 1                         the per-layer ledger + trace.json
//	bash bench/run.sh compare A.jsonl B.jsonl           two sets of runs, metric by metric
//
// (`go run ./bench ...` is the same program; run.sh only keeps the build
// inside the checkout.) The last line of standard output is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// buildDir holds everything the harness writes: scratch (one temp root
// per process, removed on exit) and, under out/, result files.
const buildDir = ".bench_build"

// params are the knobs of one invocation.
type params struct {
	seed    int64
	seconds int
	quick   bool
	// speed probes the machine's speed during the measured phase (see
	// calib.go); nil in the traced run.
	speed *speedometer
}

// minReps is the fewest repetitions a repetition-based phase makes.
func (p params) minReps() int {
	if p.quick {
		return 1
	}
	return 3
}

// setupRepeats is how often set-up runs for setup_s to be a median.
func (p params) setupRepeats() int {
	if p.quick {
		return 1
	}
	return 3
}

// budget is the measuring time of one workload.
func (p params) budget() time.Duration {
	if p.quick {
		return 0
	}
	return time.Duration(p.seconds) * time.Second
}

// pacedWall is how long the paced phase replays sim of logs for: at 1x,
// except that the smoke test has no time for that.
func (p params) pacedWall(sim time.Duration) time.Duration {
	if p.quick {
		return sim / 4
	}
	return sim
}

// envRecord is the hardware and build a result was measured on.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// record is one invocation's result: one line of a result file.
type record struct {
	Env       envRecord          `json:"env"`
	When      string             `json:"when"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Quick     bool               `json:"quick,omitempty"`
	Workloads map[string]*runOut `json:"workloads,omitempty"`
	// PerLayer is set by a traced run, LayerChecks with it.
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	LayerChecks *tally             `json:"per_layer_checks,omitempty"`
}

// pinProcs fixes GOMAXPROCS at min(NumCPU, 4), so that a result names the
// parallelism it was measured at and never more client goroutines or
// connections run than that.
func pinProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func environment() envRecord {
	return envRecord{NProc: runtime.NumCPU(), GOMAXPROCS: pinProcs(), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit}
}

// runWorkload sets one workload up (several times, for setup_s), runs it
// and checks its outputs.
func runWorkload(name string, p params, root string) (*runOut, error) {
	spec, spill := bulkSpec(p.quick), name == wlQuery
	if name == wlLive {
		spec = liveSpec(pacedDuration(p), p.quick)
	}
	dir := filepath.Join(root, name)
	setupSpeed := &speedometer{}
	fx, setupSecs, err := setUpTimed(dir, p.setupRepeats(), p.seed, spec, spill, setupSpeed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	p.speed = &speedometer{}
	var out *runOut
	switch name {
	case wlBatch:
		out, err = runBatch(fx, dir, p)
	case wlLive:
		out, err = runLive(fx, dir, p)
	case wlDist:
		out, err = runDist(fx, dir, p)
	case wlQuery:
		out, err = runQuery(fx, p)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.atReferenceSpeed(p.speed.slowness(), name != wlLive)
	out.Metrics[mSetup] = summarize(setupSecs, endToEndUnits[mSetup])
	out.Info["raw_setup_s"] = out.Metrics[mSetup].Value
	out.scale(mSetup, 1/setupSpeed.slowness())
	out.Info["corpus_rows"] = float64(fx.ref.rows(func(string) bool { return true }))
	return out, os.RemoveAll(dir)
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	spec, specErr := loadSpec("BENCHMARK.json")
	defSeconds := 20
	if specErr == nil {
		defSeconds = spec.RunSeconds
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all four): "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 17, "seed of the generated corpora and request sequence")
	seconds := fs.Int("seconds", defSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics and trace.json) instead of the end-to-end run")
	quick := fs.Bool("quick", false, "smoke run: tiny corpora, one repetition; the numbers mean nothing")
	outPath := fs.String("out", "", "append the result, one JSON line, to this file (default "+buildDir+"/out/result.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] | bench compare A.jsonl B.jsonl")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, quick: *quick}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	outDir := filepath.Join(buildDir, "out")
	if *outPath == "" {
		*outPath = filepath.Join(outDir, "result.jsonl")
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(130)
	}()

	rec := record{Env: environment(), When: time.Now().UTC().Format(time.RFC3339),
		Seed: p.seed, Seconds: p.seconds, Quick: p.quick}
	line := contractLine{Metrics: map[string]contractValue{}}
	if *trace == 1 {
		vals, checks, err := runLedger(p, root, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: traced run:", err)
			return 1
		}
		rec.PerLayer, rec.LayerChecks = vals, checks
		printLayers(vals)
		reportFailures("traced run", checks)
		line.Attempted, line.Failed = checks.Attempted, checks.Failed
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractValue{Value: vals[m.Name], Unit: m.Unit}
		}
	} else {
		rec.Workloads = make(map[string]*runOut)
		for _, name := range names {
			out, err := runWorkload(name, p, root)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rec.Workloads[name] = out
			printWorkload(name, out)
			reportFailures(name, &out.tally)
			line.Attempted += out.Attempted
			line.Failed += out.Failed
			for m, s := range out.Metrics {
				key := m
				if len(names) > 1 {
					key = name + "/" + m
				}
				line.Metrics[key] = contractValue{Value: s.Value, Unit: s.Unit}
			}
		}
	}
	if err := appendRecord(*outPath, &rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if line.Failed > 0 {
		return 1
	}
	return 0
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printWorkload(name string, out *runOut) {
	fmt.Printf("workload %s\n", name)
	for _, m := range []string{mSetup, mThroughput, mAllocs, mStored, mLatP50, mLatP95} {
		s := out.Metrics[m]
		fmt.Printf("  %-22s %14.4f %-6s q1 %.4f q3 %.4f n %d\n", m, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	keys := make([]string, 0, len(out.Info))
	for k := range out.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s %.4g)", k, out.Info[k])
	}
	fmt.Printf("\n  ops_attempted %d ops_failed %d\n", out.Attempted, out.Failed)
	if out.Invalid != "" {
		fmt.Printf("  INVALID: %s\n", out.Invalid)
	}
}

func printLayers(vals map[string]float64) {
	fmt.Println("per-layer metrics (traced run)")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %14.4f %-6s -> %s\n", m.Name, vals[m.Name], m.Unit, m.Moves)
	}
}

func reportFailures(what string, t *tally) {
	for _, n := range t.Notes {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", what, n)
	}
}
