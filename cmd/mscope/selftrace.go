package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// selfLogPath resolves the --self-log flag value: a directory (existing,
// or a path ending in a separator) gets the default file name appended so
// the host prefix is "mscope" and the built-in Parsing Declaration's
// *_selftrace.log binding routes it.
func selfLogPath(p string) string {
	if st, err := os.Stat(p); (err == nil && st.IsDir()) || os.IsPathSeparator(p[len(p)-1]) {
		return filepath.Join(p, "mscope_selftrace.log")
	}
	return p
}

// startSelfObs enables self-telemetry for one CLI run and returns the
// function that flushes it to path when the run finishes.
func startSelfObs(pipeline, path string) func() {
	now := time.Now().UTC()
	batch := pipeline + "-" + now.Format("20060102T150405.000000000")
	c := selfobs.Enable(batch, now)
	return func() {
		selfobs.Disable()
		dst := selfLogPath(path)
		n, err := writeSelfLog(c, dst)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mscope: self-log: %v\n", err)
			return
		}
		fmt.Printf("self-telemetry: %d spans in %s (batch %s)\n"+
			"  ingest it and run `mscope selftrace` for the breakdown\n", n, dst, batch)
	}
}

// writeSelfLog writes the collector's telemetry to path in the self-trace
// log format the built-in Parsing Declaration routes (*_selftrace.log).
// Returns the number of lines written.
func writeSelfLog(c *selfobs.Collector, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := c.WriteLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// cmdSelfTrace renders the per-batch critical-path breakdown of
// milliScope's own telemetry from *_selftrace warehouse tables. With
// --fleet it instead merges every node's spans — shipped by agents run
// with --self-trace and collectors with self-trace ingest — into one
// cross-node critical path with node attribution.
func cmdSelfTrace(args []string) error {
	fs := flag.NewFlagSet("selftrace", flag.ContinueOnError)
	dbPath := addDBFlag(fs)
	fleet := fs.Bool("fleet", false,
		"merge every node's telemetry into one cross-node critical path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openWarehouse("selftrace", *dbPath)
	if err != nil {
		return err
	}
	if *fleet {
		ft, err := core.FleetSelfTraceBreakdown(db)
		if err != nil {
			return err
		}
		return core.RenderFleetSelfTrace(os.Stdout, ft)
	}
	batches, err := core.SelfTraceBreakdown(db)
	if err != nil {
		return err
	}
	return core.RenderSelfTrace(os.Stdout, batches)
}
