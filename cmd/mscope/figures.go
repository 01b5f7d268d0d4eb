package main

import (
	"fmt"
	"io"
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

// buildFigures resolves a figure name against a loaded warehouse: Figure 9
// compares it with a tap capture, every other figure renders its diagnosis.
func buildFigures(db *mscopedb.DB, figure, trace string, window time.Duration) ([]*report.Figure, error) {
	if figure == "fig9" {
		if trace == "" {
			return nil, fmt.Errorf("report: fig9 requires --trace")
		}
		msgs, err := netcap.ReadCSV(trace)
		if err != nil {
			return nil, err
		}
		figs, _, err := core.Fig9Accuracy(db, msgs, window)
		return figs, err
	}
	// Without a resource plane Diagnose still hands back what the event
	// tables give, which is all Figures 2 and 6 draw.
	d, err := core.Diagnose(db, window)
	if d == nil {
		return nil, err
	}
	switch figure {
	case "fig2":
		return []*report.Figure{core.Fig2PointInTime(d)}, nil
	case "fig4":
		fig, _, err := core.Fig4DiskUtil(d)
		return []*report.Figure{fig}, err
	case "fig6":
		return []*report.Figure{core.Fig6QueueLengths(d)}, nil
	case "fig7":
		fig, _, err := core.Fig7Correlation(d)
		return []*report.Figure{fig}, err
	case "fig8":
		figs, _, err := core.Fig8DirtyPage(d)
		return figs, err
	}
	return nil, fmt.Errorf("unknown figure %q", figure)
}

// printEvaluation renders every figure of the evaluation, then its claims
// table, and fails when a claim misses its bound.
func printEvaluation(w io.Writer, ev *core.Evaluation, width, height int) error {
	for _, f := range ev.Figures {
		if err := f.Render(w, width, height); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if err := ev.WriteClaims(w); err != nil {
		return err
	}
	if missed := ev.Missed(); len(missed) > 0 {
		return fmt.Errorf("experiment: %d of %d claims miss their bound (MISSED rows above)", len(missed), len(ev.Claims))
	}
	return nil
}
