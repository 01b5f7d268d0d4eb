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
	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/mscopedb"
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

	// Figure 2: the Point-in-Time response time peak.
	fig2, pit, err := milliscope.Fig2PointInTime(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if err := fig2.Render(os.Stdout, 90, 14); err != nil {
		return err
	}
	fmt.Printf("\n→ maximum PIT response time is %.1fx the average (paper: >20x)\n\n",
		pit.PeakFactor())

	// Figure 4: disk utilization — only the DB tier saturates.
	fig4, _, err := milliscope.Fig4DiskUtil(db, 100*time.Millisecond)
	if err != nil {
		return err
	}
	if err := fig4.Render(os.Stdout, 90, 12); err != nil {
		return err
	}
	fmt.Println()

	// Figure 6: cross-tier queue pushback.
	fig6, q, err := milliscope.Fig6QueueLengths(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if err := fig6.Render(os.Stdout, 90, 12); err != nil {
		return err
	}
	if q.Window.Duration() == 0 {
		return fmt.Errorf("no VLRT window detected")
	}
	fmt.Printf("\n→ VLRT window of %v; queues grew at %v (cross-tier pushback: %v)\n\n",
		q.Window.Duration().Round(time.Millisecond), q.Pushback.Grew, q.Pushback.CrossTier)

	// Figure 7: correlation names the DB disk as the very short bottleneck.
	fig7, corr, err := milliscope.Fig7Correlation(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if err := fig7.Render(os.Stdout, 90, 12); err != nil {
		return err
	}
	fmt.Printf("\n→ DB disk utilization vs Apache queue: r = %.3f\n", corr)

	// Root-cause ranking across every tier's disk.
	candidates := map[string]*mscopedb.Series{}
	for _, tier := range milliscope.Tiers {
		tbl, err := db.Table(tier + "_collectlcsv")
		if err != nil {
			return err
		}
		resRows, err := tbl.Select().Rows()
		if err != nil {
			return err
		}
		s, err := resRows.WindowAgg("ts", 50*time.Millisecond, "dsk_util", mscopedb.AggMax)
		if err != nil {
			return err
		}
		candidates[tier+" disk"] = s
	}
	causes := analysis.RankRootCauses(q.Queues["apache"], candidates, q.Window)
	fmt.Println("\nroot-cause ranking (correlation with apache queue):")
	for i, c := range causes {
		fmt.Printf("  %d. %-12s r=%.3f peak-in-window=%.1f%%\n",
			i+1, c.Name, c.Correlation, c.PeakInWindow)
	}
	fmt.Printf("\ndiagnosis: %s is the very short bottleneck\n", causes[0].Name)
	return nil
}
