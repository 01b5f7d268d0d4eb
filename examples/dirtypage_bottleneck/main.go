// Scenario B (paper Section V-B): two look-alike response time peaks that
// turn out to have a different shape — the first saturates only Apache
// (dirty-page recycling on the web node), the second saturates Tomcat and
// pushes back to Apache. milliScope tells them apart via queue growth
// (Figure 8b), CPU saturation (8c) and the dirty-page collapse (8d).
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
		fmt.Fprintln(os.Stderr, "dirtypage_bottleneck:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-dirtypage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	cfg := milliscope.ScenarioDirtyPage(filepath.Join(base, "logs"))
	fmt.Printf("running scenario %q (dirty-page surges on apache@4s, tomcat@6.5s)...\n", cfg.Name)
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("trial:", res.Stats)
	db, _, err := res.Ingest(filepath.Join(base, "work"))
	if err != nil {
		return err
	}

	d, err := milliscope.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	figs, _, err := milliscope.Fig8DirtyPage(d)
	if err != nil {
		return err
	}
	for _, f := range figs {
		if err := f.Render(os.Stdout, 90, 12); err != nil {
			return err
		}
		fmt.Println()
	}

	fmt.Printf("→ %d response-time peaks detected (avg RT %.1f ms, peak factor %.1fx)\n",
		len(d.Windows), d.PIT.AvgUS/1000, d.PIT.PeakFactor())
	for i, w := range d.Windows {
		fmt.Printf("  peak %d: queues grew at %v (cross-tier: %v) → %s\n",
			i+1, w.Pushback.Grew, w.Pushback.CrossTier, w.Verdict)
	}
	return nil
}
