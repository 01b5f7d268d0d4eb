// Overhead comparison (paper Section VI-B, Figures 10 and 11): run the
// RUBBoS workload sweep with the event mScopeMonitors enabled and
// disabled, and show that throughput is unchanged, latency grows by
// milliseconds, IOWait by a few percent, while log write volume roughly
// doubles — the paper's "favorable tradeoff".
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "overhead:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-overhead-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	workloads := []int{1000, 2000, 4000, 8000}
	fmt.Printf("sweeping workloads %v, monitors off/on, 6s trials...\n\n", workloads)
	points, err := milliscope.MeasureOverheadSweep(workloads, 6*time.Second,
		func(name string) string { return filepath.Join(base, name) })
	if err != nil {
		return err
	}

	figs10, _, err := milliscope.Fig10Overhead(points)
	if err != nil {
		return err
	}
	figs11, _, err := milliscope.Fig11ThroughputRT(points)
	if err != nil {
		return err
	}
	for _, f := range append(figs11, figs10...) {
		if err := f.Render(os.Stdout, 90, 10); err != nil {
			return err
		}
		fmt.Println()
	}

	fmt.Println("workload  monitors  throughput   mean RT    tomcat iowait  tomcat writes")
	for _, p := range points {
		state := "off"
		if p.Enabled {
			state = "on"
		}
		fmt.Printf("%8d  %-8s  %8.1f/s  %9v  %12.2f%%  %11.0fKB\n",
			p.Workload, state, p.Throughput, p.MeanRT.Round(time.Microsecond),
			p.IOWaitPct["tomcat"], p.DiskWriteKB["tomcat"])
	}
	fmt.Println("\npaper's claims to check: identical throughput curves, ~2ms added RT,")
	fmt.Println("1–3% added CPU/IOWait, up to 2x disk write volume.")
	return nil
}
