// Scenario A (paper Section V-A): a database redo-log flush seizes the DB
// disk for ~350 ms, and milliScope diagnoses it — the Figure 2 response
// time peak, the Figure 4 disk saturation, the Figure 6 cross-tier
// pushback, and the Figure 7 correlation that names the root cause.
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
		fmt.Fprintln(os.Stderr, "dbio_bottleneck:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-dbio-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	cfg := milliscope.ScenarioDBIO(filepath.Join(base, "logs"))
	fmt.Printf("running scenario %q (DB log flush at t=6s for 350ms)...\n", cfg.Name)
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("trial:", res.Stats)
	db, _, err := res.Ingest(filepath.Join(base, "work"))
	if err != nil {
		return err
	}

	// One diagnosis of the trial; each figure renders a step of it.
	d, err := milliscope.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if len(d.Windows) == 0 {
		return fmt.Errorf("no VLRT window detected")
	}
	w := d.Windows[0]

	// Figure 2: the Point-in-Time response time peak.
	if err := milliscope.Fig2PointInTime(d).Render(os.Stdout, 90, 14); err != nil {
		return err
	}
	fmt.Printf("\n→ maximum PIT response time is %.1fx the average (paper: >20x)\n\n",
		d.PIT.PeakFactor())

	// Figure 4: disk utilization — only the DB tier saturates.
	fig4, _, err := milliscope.Fig4DiskUtil(d)
	if err != nil {
		return err
	}
	if err := fig4.Render(os.Stdout, 90, 12); err != nil {
		return err
	}
	fmt.Println()

	// Figure 6: cross-tier queue pushback.
	if err := milliscope.Fig6QueueLengths(d).Render(os.Stdout, 90, 12); err != nil {
		return err
	}
	fmt.Printf("\n→ VLRT window of %v; queues grew at %v (cross-tier pushback: %v)\n\n",
		w.Window.Duration().Round(time.Millisecond), w.Pushback.Grew, w.Pushback.CrossTier)

	// Figure 7: the DB disk against the Apache queue over the window.
	fig7, _, err := milliscope.Fig7Correlation(d)
	if err != nil {
		return err
	}
	if err := fig7.Render(os.Stdout, 90, 12); err != nil {
		return err
	}

	// The ranking the verdict was read from: every gauge by its
	// correlation with the Apache queue around the window.
	fmt.Println("\nroot-cause ranking (lag-adjusted correlation with apache queue):")
	for i, c := range w.Causes {
		fmt.Printf("  %d. %-12s r=%.3f peak-in-window=%.1f%%\n",
			i+1, c.Name, c.Correlation, c.PeakInWindow)
	}
	fmt.Printf("\ndiagnosis: %s\n", w.Verdict)
	return nil
}
