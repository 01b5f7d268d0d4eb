package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/stream"
)

// cmdLive runs the streaming mode: stage a scenario's logs with the DES
// simulator (which runs in virtual time), replay them at wall-clock pace
// into a live directory, and tail that directory with the incremental
// pipeline — alerts fire while the "experiment" is still writing.
func cmdLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	scenario := fs.String("scenario", "dbio", scenarioChoices)
	out := fs.String("out", "", "base directory for staged + live logs (required)")
	dbPath := addDBFlag(fs)
	engine := addEngineFlags(fs)
	speed := fs.Float64("speed", 8, "replay speed: trial seconds per wall second")
	debugAddr := fs.String("debug-addr", "",
		"serve /debug/pprof and /debug/vars (Go's memstats and cmdline) on this address, kept off the metrics listener")
	selfLog := fs.String("self-log", "",
		"write milliScope's own span telemetry to this file (or directory) as an ingestable log")
	chaosRate := fs.Float64("chaos-rate", 0, "per-line fault probability in [0, 1] injected into the tailed stream")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos corruption seed")
	expectAlert := fs.Bool("expect-alert", false, "exit nonzero unless an alert fired and, if online, sooner after its window than its slice + the 2s grace ceiling + its hold for a later episode in its slice")
	rotate := fs.Float64("rotate", 0, "rotate (truncate) event logs at this replay fraction in [0, 1), 0 = never")
	overloadSpec := fs.String("overload", "",
		"overload injector: at=F,until=F,factor=N[,delay=D] bursts the replay and throttles the consumer")
	users := fs.Int("users", 0, "override concurrent users")
	duration := fs.Duration("duration", 0, "override trial duration")
	seed := fs.Int64("seed", 0, "override random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("live: --out is required")
	}
	if *speed <= 0 {
		return fmt.Errorf("live: --speed must be positive")
	}
	liveCfg, err := engine.config("live")
	if err != nil {
		return err
	}
	if err := checkRate("live", "chaos-rate", *chaosRate); err != nil {
		return err
	}
	if !(*rotate >= 0 && *rotate < 1) {
		return fmt.Errorf("live: --rotate %v outside [0, 1)", *rotate)
	}
	var overload *faults.Overload
	if *overloadSpec != "" {
		o, err := faults.ParseOverload(*overloadSpec)
		if err != nil {
			return fmt.Errorf("live: %w", err)
		}
		overload = &o
	}
	if *selfLog != "" {
		defer startSelfObs("live", *selfLog)()
	}

	stageDir := filepath.Join(*out, "stage")
	liveDir := filepath.Join(*out, "live")
	cfg, err := scenarioConfig(*scenario, stageDir, *users, *duration, *seed)
	if err != nil {
		return err
	}
	res, err := core.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("staged experiment %s: %s\n", cfg.Name, res.Stats)

	if liveCfg.DB, err = openForLoad(*dbPath); err != nil {
		return err
	}

	producer, err := stream.NewProducer(stream.ProducerConfig{
		SrcDir:    stageDir,
		DstDir:    liveDir,
		Duration:  time.Duration(float64(cfg.Ntier.Duration) / *speed),
		ChaosRate: *chaosRate,
		ChaosSeed: *chaosSeed,
		RotateAt:  *rotate,
		Overload:  overload,
	})
	if err != nil {
		return err
	}
	if producer.ChaosReport != nil {
		fmt.Print(producer.ChaosReport.Summary())
	}

	liveCfg.LogDir = liveDir
	if overload != nil {
		liveCfg.ConsumerDelay = overload.ConsumerDelay
	}
	pipe, err := stream.New(liveCfg)
	if err != nil {
		return err
	}

	closeListeners, err := engine.listen("live", pipe, pipe.Handler(), pipe.MetricsText, "/status", "/alerts")
	if err != nil {
		return err
	}
	dbgSrv, err := serveOn(*debugAddr, debugHandler(),
		"live: debug listener: %w", "serving /debug/pprof /debug/vars on %s\n")
	if err != nil {
		closeListeners()
		return err
	}

	pipe.Start()
	replayErr := producer.Run()
	stopErr := pipe.Stop()
	closeListeners()
	closeServers(dbgSrv)
	if replayErr != nil {
		return replayErr
	}
	if stopErr != nil {
		return stopErr
	}

	st := pipe.Status()
	fmt.Printf("live session: %d rows (%.0f rows/sec), %d quarantined, %d alerts\n",
		st.Rows, st.RowsPerSec, st.Quarantined, st.Alerts)
	if st.EvidenceErrors > 0 {
		fmt.Printf("detector: %d evidence errors, the last: %s\n", st.EvidenceErrors, st.EvidenceError)
	}
	if f := st.Fidelity; f != nil {
		fmt.Printf("fidelity %s: state=%s rolled-up=%d promoted=%d shed=%d rollup-rows=%d ring-rows=%d transitions=%d stalls=%d\n",
			f.Mode, f.State, f.RowsRolledUp, f.RowsPromoted, f.RowsShed,
			f.RollupRows, f.RingRows, f.Transitions, st.Stalls)
	}
	for _, s := range st.Sources {
		line := fmt.Sprintf("  %-28s → %-22s %8d rows @%d bytes [%s]",
			s.File, s.Table, s.Rows, s.Offset, s.State)
		if s.Quarantined > 0 {
			line += fmt.Sprintf(" (%d quarantined)", s.Quarantined)
		}
		if s.Error != "" {
			line += " " + s.Error
		}
		fmt.Println(line)
	}
	alerts := pipe.Alerts()
	printAlerts(alerts)
	if err := commitLoaded(*dbPath, pipe.DB()); err != nil {
		return err
	}
	if *expectAlert && len(alerts) == 0 {
		return fmt.Errorf("live: --expect-alert set but no alert fired")
	}
	// Held in CI: the grace follows the data, not the constant ceiling. A
	// later episode starting inside the slice may hold the alert longer.
	if *expectAlert && alerts[0].DelayUS >= alerts[0].SliceUS+alerts[0].CeilingUS+alerts[0].HoldUS {
		return fmt.Errorf("live: --expect-alert: first alert fired %s", alerts[0].Waited())
	}
	return nil
}

// debugHandler serves /debug/pprof/* and /debug/vars, the Go runtime's
// profiles, memstats and cmdline. Serve it on its own listener: profiling
// can stall the process, so it is never mounted where operators scrape.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
