// Accuracy validation (paper Section VI-A, Figure 9): the event
// mScopeMonitors' queue lengths are compared, tier by tier, against the
// SysViz comparator reconstructing the same trial from a passive network
// tap — plus the causal-path accuracy gap that motivates milliScope's
// explicit ID propagation.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/sysviz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "accuracy_sysviz:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-accuracy-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Workload 4000 over 10 s keeps the example quick; `mscope experiment`
	// runs the paper's workload 8000.
	cfg := milliscope.ScenarioAccuracy(filepath.Join(base, "logs"), 4000, 10*time.Second)
	fmt.Printf("running %q with event monitors AND a network tap...\n", cfg.Name)
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("trial:", res.Stats)
	fmt.Printf("tap captured %d wire messages\n\n", res.Capture.Len())

	db, _, err := res.Ingest(filepath.Join(base, "work"))
	if err != nil {
		return err
	}
	figs, stats, err := milliscope.Fig9Accuracy(db, res.Capture.Messages(), 100*time.Millisecond)
	if err != nil {
		return err
	}
	for _, f := range figs {
		if err := f.Render(os.Stdout, 90, 10); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Println("per-tier agreement (event monitors vs SysViz):")
	for _, tier := range milliscope.Tiers {
		st := stats.Tiers[tier]
		fmt.Printf("  %-8s corr=%.3f  MAE=%.2f requests  (%d windows)\n",
			tier, st.Correlation, st.MAE, st.Windows)
	}

	// Where the two approaches differ: causal-path attribution. SysViz
	// infers nesting from timing; milliScope propagates IDs and is exact.
	txns, err := sysviz.MatchTransactions(res.Capture.Messages())
	if err != nil {
		return err
	}
	sysviz.BuildTraces(txns)
	correct, total := sysviz.PathAccuracy(txns)
	fmt.Printf("\ncausal-path attribution: SysViz timing inference %.1f%% correct (%d/%d);\n",
		100*float64(correct)/float64(total), correct, total)
	fmt.Println("milliScope's propagated request IDs are exact by construction — the reason")
	fmt.Println("the paper instruments the URL/SQL path instead of relying on timing.")
	return nil
}
