package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/netcap"
	"github.com/gt-elba/milliscope/internal/report"
	"github.com/gt-elba/milliscope/internal/transform"
)

// ingestDir pushes a log directory through the pipeline into db, using a
// custom declaration file when given.
func ingestDir(db *mscopedb.DB, logs, work, planPath string, opts transform.Options) (transform.Report, error) {
	plan := transform.DefaultPlan()
	if planPath != "" {
		var err error
		plan, err = transform.LoadPlan(planPath)
		if err != nil {
			return transform.Report{}, err
		}
	}
	return transform.IngestDirWithOptions(db, logs, work, plan, opts)
}

// buildFigures resolves a figure name against a loaded warehouse.
func buildFigures(db *mscopedb.DB, figure, trace string, window time.Duration) ([]*report.Figure, error) {
	switch figure {
	case "fig2":
		fig, _, err := core.Fig2PointInTime(db, window)
		return []*report.Figure{fig}, err
	case "fig4":
		fig, _, err := core.Fig4DiskUtil(db, 2*window)
		return []*report.Figure{fig}, err
	case "fig6":
		fig, _, err := core.Fig6QueueLengths(db, window)
		return []*report.Figure{fig}, err
	case "fig7":
		fig, _, err := core.Fig7Correlation(db, window, 0, math.MaxInt64)
		return []*report.Figure{fig}, err
	case "fig8":
		figs, _, err := core.Fig8DirtyPage(db, window)
		return figs, err
	case "fig9":
		if trace == "" {
			return nil, fmt.Errorf("report: fig9 requires --trace")
		}
		msgs, err := netcap.ReadCSV(trace)
		if err != nil {
			return nil, err
		}
		figs, _, err := core.Fig9Accuracy(db, msgs, 2*window)
		return figs, err
	default:
		return nil, fmt.Errorf("unknown figure %q", figure)
	}
}

// regenerateAll reruns every scenario and prints every paper figure — the
// one-command evaluation reproduction. The scale factor shortens only the
// accuracy and overhead trials; scenarios A and B keep their full length
// because their fault injections are scripted at absolute times.
func regenerateAll(out string, scale float64, width, height int) error {
	scaleDur := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * scale)
	}
	render := func(figs ...*report.Figure) error {
		for _, f := range figs {
			if err := f.Render(os.Stdout, width, height); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}

	// Scenario A → Figures 2, 4, 6, 7.
	fmt.Println("### Scenario A: database IO as the very short bottleneck")
	cfgA := core.ScenarioDBIO(filepath.Join(out, "dbio", "logs"))
	resA, err := core.RunExperiment(cfgA)
	if err != nil {
		return err
	}
	fmt.Println("trial:", resA.Stats)
	dbA, _, err := resA.Ingest(filepath.Join(out, "dbio", "work"))
	if err != nil {
		return err
	}
	fig2, pit, err := core.Fig2PointInTime(dbA, 50*time.Millisecond)
	if err != nil {
		return err
	}
	fig4, _, err := core.Fig4DiskUtil(dbA, 100*time.Millisecond)
	if err != nil {
		return err
	}
	fig6, _, err := core.Fig6QueueLengths(dbA, 50*time.Millisecond)
	if err != nil {
		return err
	}
	fig7, _, err := core.Fig7Correlation(dbA, 50*time.Millisecond, 0, math.MaxInt64)
	if err != nil {
		return err
	}
	if err := render(fig2, fig4, fig6, fig7); err != nil {
		return err
	}
	fmt.Printf("peak/avg factor: %.1fx\n\n", pit.PeakFactor())

	// Scenario B → Figure 8.
	fmt.Println("### Scenario B: memory dirty pages as the very short bottleneck")
	cfgB := core.ScenarioDirtyPage(filepath.Join(out, "dirtypage", "logs"))
	resB, err := core.RunExperiment(cfgB)
	if err != nil {
		return err
	}
	fmt.Println("trial:", resB.Stats)
	dbB, _, err := resB.Ingest(filepath.Join(out, "dirtypage", "work"))
	if err != nil {
		return err
	}
	figs8, _, err := core.Fig8DirtyPage(dbB, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if err := render(figs8...); err != nil {
		return err
	}

	// Accuracy → Figure 9.
	fmt.Println("### Accuracy validation against SysViz (workload 8000)")
	cfgC := core.ScenarioAccuracy(filepath.Join(out, "accuracy", "logs"),
		8000, scaleDur(20*time.Second))
	resC, err := core.RunExperiment(cfgC)
	if err != nil {
		return err
	}
	fmt.Println("trial:", resC.Stats)
	dbC, _, err := resC.Ingest(filepath.Join(out, "accuracy", "work"))
	if err != nil {
		return err
	}
	figs9, _, err := core.Fig9Accuracy(dbC, resC.Capture.Messages(), 100*time.Millisecond)
	if err != nil {
		return err
	}
	if err := render(figs9...); err != nil {
		return err
	}

	// Overhead sweep → Figures 10, 11.
	fmt.Println("### Overhead comparison (monitors on vs off)")
	points, err := core.MeasureOverheadSweep(
		[]int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000},
		scaleDur(8*time.Second),
		func(name string) string { return filepath.Join(out, "overhead", name) })
	if err != nil {
		return err
	}
	figs10, err := core.Fig10Overhead(points)
	if err != nil {
		return err
	}
	figs11, err := core.Fig11ThroughputRT(points)
	if err != nil {
		return err
	}
	if err := render(figs10...); err != nil {
		return err
	}
	return render(figs11...)
}
