// Command mscope is the milliScope driver: it runs monitored trials on
// the simulated testbed, pushes their logs through the transformation
// pipeline into mScopeDB, and serves queries and figure reports.
//
// Usage:
//
//	mscope run --scenario dbio --out logs/            run a trial, write logs
//	mscope ingest --logs logs/ --work work/ --db wh/  transform + load
//	mscope tables --db wh/                            list warehouse tables
//	mscope query --db wh/ 'SELECT ... FROM ...'       run an MQL query
//	mscope report --db wh/ --figure fig2              render a figure
//	mscope experiment --out exp/                      every figure + claims gate
//	mscope serve --db wh/ --listen :8080              query API + flamegraphs
//	mscope collector --listen :9090 --db wh/          central ingest server
//	mscope agent --id n1 --logs logs/ --addr host:9090 per-node log shipper
//	mscope scenario verify --all --live               fault-catalogue soak
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mscope:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "ingest":
		return cmdIngest(args[1:])
	case "live":
		return cmdLive(args[1:])
	case "agent":
		return cmdAgent(args[1:])
	case "collector":
		return cmdCollector(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	case "tables":
		return cmdTables(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "diagnose":
		return cmdDiagnose(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "selftrace":
		return cmdSelfTrace(args[1:])
	case "compact":
		return cmdCompact(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "scenario":
		return cmdScenario(args[1:])
	case "experiment":
		return cmdExperiment(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mscope — milliScope driver

commands:
  run        run a monitored trial (writes monitor logs + network trace)
  live       replay a trial at wall pace and detect millibottlenecks online
  agent      per-node daemon: tail this node's logs, ship parsed batches
             (frames of at most the collector's credit) to the central
             collector, resume from acked offsets on restart
  collector  central ingest server: adopt agent sources, ack durable
             offsets, detect millibottlenecks online across the fleet
  chaos      copy a log directory injecting deterministic faults
  ingest     transform a log directory and load it into the warehouse
             directory --db DIR, an on-disk columnar segment store a
             re-run resumes (--workers N parses N files at once;
             default one per CPU)
  compact    merge small on-disk segments of the warehouse in --db DIR
  plan       write the default Parsing Declaration as editable JSON
  tables     list warehouse tables
  query      run an MQL query against a warehouse
  report     render a paper figure from a warehouse
  diagnose   detect VLRT windows and name their root causes, at the
             50 ms width every verdict in every command uses
  trace      render one request's causal path (Figure 5)
  selftrace  per-stage critical-path breakdown of milliScope's own
             telemetry (ingest a log produced with --self-log first);
             --fleet merges every node's spans into one cross-node path
  serve      observability service over a saved warehouse: MQL query API,
             per-request waterfalls and critical-path flamegraphs, and
             the diagnosis timeline with full evidence
  scenario   declarative fault catalogue: list the registry, run one
             entry, or verify entries end to end against their expected
             verdicts (batch, and online with --live)
  experiment run every trial of the paper's evaluation once, render each
             figure, print the claims table; exits 1 if a claim misses
             its bound`)
}

// scenarioChoices lists what --scenario accepts: every catalogue entry,
// plus the Figure 9 accuracy trial.
var scenarioChoices = strings.Join(append(core.ScenarioNames(), "accuracy"), " | ")

// scenarioConfig builds the experiment for a named scenario.
func scenarioConfig(name, out string, users int, duration time.Duration, seed int64) (core.ExperimentConfig, error) {
	var cfg core.ExperimentConfig
	if name == "accuracy" {
		if users == 0 {
			users = 8000
		}
		if duration == 0 {
			duration = 20 * time.Second
		}
		cfg = core.ScenarioAccuracy(out, users, duration)
	} else {
		s, ok := core.ScenarioByName(name)
		if !ok {
			return cfg, fmt.Errorf("unknown scenario %q (%s)", name, scenarioChoices)
		}
		built, err := s.Build(out)
		if err != nil {
			return cfg, err
		}
		cfg = built
	}
	if users != 0 {
		cfg.Ntier.Users = users
	}
	if duration != 0 {
		cfg.Ntier.Duration = duration
	}
	if seed != 0 {
		cfg.Ntier.Seed = seed
	}
	return cfg, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scenario := fs.String("scenario", "dbio", scenarioChoices)
	out := fs.String("out", "", "log output directory (required)")
	users := fs.Int("users", 0, "override concurrent users")
	duration := fs.Duration("duration", 0, "override trial duration")
	seed := fs.Int64("seed", 0, "override random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("run: --out is required")
	}
	cfg, err := scenarioConfig(*scenario, *out, *users, *duration, *seed)
	if err != nil {
		return err
	}
	res, err := core.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("experiment %s: %s\n", cfg.Name, res.Stats)
	if res.Capture != nil {
		trace := filepath.Join(*out, "trace.csv")
		if err := res.Capture.WriteCSV(trace); err != nil {
			return err
		}
		fmt.Printf("network trace: %s (%d messages)\n", trace, res.Capture.Len())
	}
	fmt.Printf("monitor logs in %s\n", *out)
	return nil
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	logs := fs.String("logs", "", "clean log directory (required)")
	out := fs.String("out", "", "corrupted output directory (required)")
	seed := fs.Int64("seed", 1, "corruption seed (same seed + input ⇒ identical output)")
	rate := fs.Float64("rate", 0.005, "per-line fault probability in [0, 1] on event logs")
	kinds := fs.String("kinds", "", "comma-separated fault kinds (default: garbage,torn,duplicate,truncate)")
	skewMax := fs.Duration("skew-max", 0, "clock-skew bound for the skew kind (default 2ms)")
	gap := fs.Float64("gap", 0, "resource-sample loss fraction in [0, 1] for the gap kind (0 = default 8%)")
	deleteTiers := fs.String("delete-tiers", "", "comma-separated tiers whose event logs the delete-tier kind removes")
	overloadSpec := fs.String("overload", "",
		"write an overload.json sidecar (at=F,until=F,factor=N[,delay=D]) so replays of the output burst")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logs == "" || *out == "" {
		return fmt.Errorf("chaos: --logs and --out are required")
	}
	if err := checkRate("chaos", "rate", *rate); err != nil {
		return err
	}
	if err := checkRate("chaos", "gap", *gap); err != nil {
		return err
	}
	ks, err := faults.ParseKinds(*kinds)
	if err != nil {
		return err
	}
	cfg := faults.Config{
		Seed: *seed, Rate: *rate, Kinds: ks,
		SkewMax: *skewMax, GapFraction: *gap,
	}
	if *deleteTiers != "" {
		cfg.DeleteTiers = strings.Split(*deleteTiers, ",")
	}
	rep, err := faults.Corrupt(*logs, *out, cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if *overloadSpec != "" {
		o, err := faults.ParseOverload(*overloadSpec)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		if err := o.WriteSidecar(*out); err != nil {
			return err
		}
		fmt.Printf("overload sidecar written — `mscope live` replays of %s will burst %.0fx over [%.0f%%,%.0f%%]\n",
			*out, o.BurstFactor, o.BurstAt*100, o.BurstUntil*100)
	}
	fmt.Printf("corrupted copy in %s — ingest it with --mode quarantine\n", *out)
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	out := fs.String("out", "", "output JSON path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("plan: --out is required")
	}
	if err := transform.DefaultPlan().Save(*out); err != nil {
		return err
	}
	fmt.Printf("default Parsing Declaration written to %s — edit it and pass\n"+
		"--plan to `mscope ingest` to route custom log formats\n", *out)
	return nil
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	logs := fs.String("logs", "", "log directory (required)")
	work := fs.String("work", "", "work directory: quarantine sinks and --materialize artifacts (required)")
	dbPath := addDBFlag(fs)
	planPath := fs.String("plan", "", "custom Parsing Declaration JSON (default: built-in)")
	mode := fs.String("mode", "fail-fast", "malformed-input policy: fail-fast | quarantine")
	budget := fs.Float64("budget", 0, "quarantine error budget (corrupt-line ratio per file; 0 = default 5%)")
	qdir := fs.String("quarantine", "", "quarantine sink directory (default: WORK/quarantine)")
	workers := fs.Int("workers", 0,
		"files parsed concurrently, 0 = one per CPU; output identical for every value")
	materialize := fs.Bool("materialize", false,
		"also write the staged XML/CSV artifacts to WORK")
	selfLog := fs.String("self-log", "",
		"write milliScope's own span telemetry to this file (or directory) as an ingestable log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logs == "" || *work == "" || *dbPath == "" {
		return fmt.Errorf("ingest: --logs, --work and --db are required")
	}
	if *selfLog != "" {
		defer startSelfObs("ingest", *selfLog)()
	}
	if *workers < 0 {
		return fmt.Errorf("ingest: --workers %d: must be >= 0 (0 = one per CPU)", *workers)
	}
	if err := transform.CheckBudget(*budget); err != nil {
		return fmt.Errorf("ingest: --budget: %w", err)
	}
	policy, err := transform.ParsePolicy(*mode)
	if err != nil {
		return err
	}
	opts := transform.Options{Policy: policy, ErrorBudget: *budget,
		QuarantineDir: *qdir, Workers: *workers, Materialize: *materialize}
	db, err := openForLoad(*dbPath)
	if err != nil {
		return err
	}
	rep, err := ingestDir(db, *logs, *work, *planPath, opts)
	if err != nil {
		return err
	}
	for _, f := range rep.Files {
		line := fmt.Sprintf("  %-28s → %-22s %8d entries (%s)",
			filepath.Base(f.Input), f.Table, f.Entries, f.Parser)
		if f.Quarantined > 0 {
			line += fmt.Sprintf("  [%d quarantined → %s]", f.Quarantined, f.QuarantinePath)
		}
		fmt.Println(line)
	}
	for _, s := range rep.Skipped {
		fmt.Printf("  %-28s skipped (no declaration)\n", s)
	}
	for _, s := range rep.Unchanged {
		fmt.Printf("  %-28s unchanged (already loaded)\n", s)
	}
	for _, f := range rep.Failed {
		fmt.Printf("  %-28s REJECTED: %v\n", filepath.Base(f.Input), f.Err)
	}
	fmt.Printf("loaded %d rows into %d tables\n", rep.TotalRows(), len(rep.Files))
	if n := rep.TotalQuarantined(); n > 0 || len(rep.Failed) > 0 {
		fmt.Printf("degraded ingest: %d regions quarantined, %d files rejected\n", n, len(rep.Failed))
	}
	if consistency, err := core.ValidateWarehouse(db); err == nil {
		fmt.Println(consistency.Summary())
	}
	return commitLoaded(*dbPath, db)
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("tables", *dbPath)
	if err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			return err
		}
		var cols []string
		for _, c := range tbl.Columns() {
			cols = append(cols, fmt.Sprintf("%s:%s", c.Name, c.Type))
		}
		fmt.Printf("%-24s %8d rows  (%s)\n", name, tbl.Rows(), strings.Join(cols, ", "))
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: usage: mscope query --db DIR 'SELECT ...'")
	}
	db, err := openWarehouse("query", *dbPath)
	if err != nil {
		return err
	}
	out, err := mql.Run(db, fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(out.Cols, "\t"))
	for _, row := range out.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(out.Rows))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	figure := fs.String("figure", "fig2", "fig2 | fig4 | fig6 | fig7 | fig8 | fig9")
	trace := fs.String("trace", "", "network trace CSV (required for fig9)")
	window := fs.Duration("window", core.DefaultWindow, "analysis window")
	width := fs.Int("width", 96, "chart width")
	height := fs.Int("height", 16, "chart height")
	format := fs.String("format", "chart", "chart | table | csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("report", *dbPath)
	if err != nil {
		return err
	}
	figs, err := buildFigures(db, *figure, *trace, *window)
	if err != nil {
		return err
	}
	for _, f := range figs {
		switch *format {
		case "chart":
			err = f.Render(os.Stdout, *width, *height)
		case "table":
			err = f.RenderTable(os.Stdout, 40)
		case "csv":
			err = f.WriteCSV(os.Stdout)
		default:
			return fmt.Errorf("report: unknown format %q", *format)
		}
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("diagnose", *dbPath)
	if err != nil {
		return err
	}
	diag, err := core.Diagnose(db, core.DefaultWindow)
	if err != nil {
		return err
	}
	fmt.Printf("requests=%d avgRT=%.2fms maxRT=%.2fms peak/avg=%.1fx\n",
		diag.PIT.Requests, diag.PIT.AvgUS/1000, diag.PIT.MaxUS/1000, diag.PIT.PeakFactor())
	if diag.Degraded() {
		fmt.Printf("DEGRADED: missing evidence sources: %s\n",
			strings.Join(diag.MissingSources, ", "))
	}
	if len(diag.Windows) == 0 {
		fmt.Println("no very-long-response-time windows detected")
		return nil
	}
	for i, wd := range diag.Windows {
		fmt.Printf("\nVLRT window %d: duration=%v peakRT=%.1fms\n",
			i+1, wd.Window.Duration().Round(time.Millisecond), wd.Window.Peak/1000)
		fmt.Printf("  queues grew: %v (cross-tier=%v)\n", wd.Pushback.Grew, wd.Pushback.CrossTier)
		for j, c := range wd.Causes {
			if j >= 4 {
				break
			}
			fmt.Printf("  candidate %d: %-14s r=%+.3f peak=%.1f\n",
				j+1, c.Name, c.Correlation, c.PeakInWindow)
		}
		fmt.Printf("  verdict: %s\n", wd.Verdict)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	req := fs.String("req", "", "request ID; default: the slowest request")
	width := fs.Int("width", 80, "swimlane width")
	breakdown := fs.Bool("breakdown", false, "print the aggregate per-tier latency profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("trace", *dbPath)
	if err != nil {
		return err
	}
	// Join whichever standard event tables exist: traces that provably lack
	// a missing tier are flagged instead of the whole build failing.
	traces, cov, err := tracegraph.BuildPartial(db, core.EventTables())
	if err != nil {
		return err
	}
	if cov.Degraded() {
		if err := report.RenderCoverage(os.Stdout, cov); err != nil {
			return err
		}
	}
	if *breakdown {
		prof := tracegraph.AggregateBreakdown(traces)
		fmt.Printf("per-tier latency profile over %d traces:\n", len(traces))
		fmt.Println("  tier      visits   mean-local   p99-local    mean-residence")
		for _, tier := range core.Tiers {
			p, ok := prof[tier]
			if !ok {
				continue
			}
			fmt.Printf("  %-8s %7d %12v %12v %12v\n", tier, p.Visits,
				p.MeanLocal.Round(time.Microsecond),
				p.P99Local.Round(time.Microsecond),
				p.MeanResidence.Round(time.Microsecond))
		}
		fmt.Println()
	}
	id := *req
	if id == "" {
		out, err := mql.Run(db,
			"SELECT reqid FROM apache_event ORDER BY rt_us DESC LIMIT 1")
		if err != nil {
			return err
		}
		if len(out.Rows) == 0 {
			return fmt.Errorf("trace: warehouse has no requests")
		}
		id = out.Rows[0][0]
	}
	tr, ok := traces[id]
	if !ok {
		return fmt.Errorf("trace: no trace for request %q", id)
	}
	return report.RenderTrace(os.Stdout, tr, *width)
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	out := fs.String("out", "", "base output directory (required)")
	width := fs.Int("width", 96, "chart width")
	height := fs.Int("height", 14, "chart height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("experiment: --out is required")
	}
	ev, err := core.Evaluate(*out)
	if err != nil {
		return err
	}
	return printEvaluation(os.Stdout, ev, *width, *height)
}
