// Quickstart: run a short monitored trial on the simulated four-tier
// testbed, ingest its logs into mScopeDB, query the warehouse, and
// reconstruct one request's causal path.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/gt-elba/milliscope"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-quickstart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// 1. Configure a small trial: 80 users for 4 seconds, with the event
	// mScopeMonitors and fine-grained resource monitors attached.
	cfg := milliscope.ScenarioDBIO(filepath.Join(base, "logs"))
	cfg.Ntier.Users = 80
	cfg.Ntier.Duration = 4 * time.Second
	cfg.Injectors = nil // quickstart: healthy system, no fault injection

	fmt.Println("running 4s trial with 80 users...")
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("trial:", res.Stats)

	// 2. Ingest: declaration → parse → annotated XML → CSV → warehouse.
	db, rep, err := res.Ingest(filepath.Join(base, "work"))
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d rows into %d tables\n\n", rep.TotalRows(), len(rep.Files))

	// 3. Query the warehouse with MQL: the five slowest requests.
	out, err := milliscope.Query(db,
		"SELECT reqid, uri, rt_us FROM apache_event ORDER BY rt_us DESC LIMIT 5")
	if err != nil {
		return err
	}
	fmt.Println("five slowest requests:")
	fmt.Println("  " + strings.Join(out.Cols, "\t"))
	for _, row := range out.Rows {
		fmt.Println("  " + strings.Join(row, "\t"))
	}

	// 4. Reconstruct the slowest request's causal path (Figure 5) and
	// print its per-tier latency breakdown.
	traces, err := milliscope.BuildTraces(db)
	if err != nil {
		return err
	}
	slowest := out.Rows[0][0]
	tr, ok := traces[slowest]
	if !ok {
		return fmt.Errorf("no trace for %s", slowest)
	}
	fmt.Printf("\ncausal path of %s (%d tier visits):\n", slowest, len(tr.Spans))
	for _, sp := range tr.Spans {
		fmt.Printf("  %-8s q=%d residence=%-10v local=%v\n",
			sp.Tier, sp.Seq, sp.Residence(), sp.Local())
	}
	local := tr.LocalTime()
	tiers := make([]string, 0, len(local))
	for t := range local {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	fmt.Println("per-tier latency contribution:")
	for _, t := range tiers {
		fmt.Printf("  %-8s %v\n", t, local[t])
	}

	// 5. A window-aggregated series: Point-in-Time response time.
	pitOut, err := milliscope.Query(db,
		"SELECT WINDOW 250ms MAX(rt_us) BY ud FROM apache_event")
	if err != nil {
		return err
	}
	fmt.Println("\nPoint-in-Time max RT per 250ms window (µs):")
	for _, row := range pitOut.Rows {
		fmt.Println("  " + strings.Join(row, "\t"))
	}
	return nil
}
