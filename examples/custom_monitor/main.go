// Custom monitor: the paper stresses that "milliScope is a fine-grained
// monitoring framework, which allows researchers to extend the monitoring
// scope easily" (§V-B). This example adds a monitor the framework has
// never seen — a client-side latency probe writing its own log format —
// by appending one declarative Binding to the Parsing Declaration, then
// correlates the probe's data with the built-in event tables in one
// warehouse.
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
		fmt.Fprintln(os.Stderr, "custom_monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	base, err := os.MkdirTemp("", "mscope-custom-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	logs := filepath.Join(base, "logs")

	// 1. Run a standard instrumented trial.
	cfg := milliscope.ScenarioDBIO(logs)
	cfg.Ntier.Users = 100
	cfg.Ntier.Duration = 8 * time.Second
	fmt.Println("running 8s trial (DB flush at t=6s)...")
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("trial:", res.Stats)

	// 2. A third-party probe wrote its own log alongside the monitors.
	// (Here we synthesize it from the trial's client-observed latencies —
	// in a real deployment this is an external tool's file.)
	probePath := filepath.Join(logs, "probe_latency.log")
	if err := writeProbeLog(probePath, res); err != nil {
		return err
	}
	fmt.Printf("external probe log: %s\n\n", probePath)

	// 3. Extend the Parsing Declaration with ONE binding: pattern, the
	// generic token parser, a regex, and a time normalization rule. No new
	// code enters the pipeline.
	plan := milliscope.DefaultPlan()
	plan.Bindings = append(plan.Bindings, milliscope.Binding{
		Glob:   "probe_*.log",
		Parser: "token",
		Instructions: milliscope.Instructions{
			Pattern: `^(?P<when>\S+) probe=(?P<probe>\S+) rt_ms=(?P<rt_ms>[0-9.]+) ok=(?P<ok>\d)$`,
			Times:   []milliscope.TimeRule{{Field: "when", Layout: time.RFC3339Nano}},
		},
		Source:      "latency-probe",
		TableSuffix: "latency",
		Host:        "probe",
	})

	// 4. Ingest everything — built-in monitors and the custom probe — into
	// one warehouse.
	db := milliscope.OpenDB()
	rep, err := milliscope.IngestDir(db, logs, filepath.Join(base, "work"), plan)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d rows into %d tables (skipped: %v)\n",
		rep.TotalRows(), len(rep.Files), rep.Skipped)

	// 5. Query the custom table like any other.
	out, err := milliscope.Query(db,
		"SELECT WINDOW 1s MAX(rt_ms) BY when FROM probe_latency")
	if err != nil {
		return err
	}
	fmt.Println("\nprobe max latency per second (ms):")
	for r := 0; r < out.Len(); r++ {
		fmt.Printf("  %s\t%s\n", out.AppendCell(nil, r, 0), out.AppendCell(nil, r, 1))
	}

	// 6. And the cross-check the warehouse exists for: the probe's worst
	// second coincides with the event monitors' VLRT window.
	diag, err := milliscope.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		return err
	}
	if len(diag.Windows) > 0 {
		fmt.Printf("\nevent monitors' diagnosis of the same interval: %s\n",
			diag.Windows[0].Verdict)
	}
	fmt.Println("\nadding the probe took one Binding — no parser code, no schema DDL.")
	return nil
}

// writeProbeLog synthesizes the external probe's log: one line per 500ms
// with the worst client-observed latency in that window.
func writeProbeLog(path string, res *milliscope.ExperimentResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const windowUS = 500_000
	worst := map[int64]float64{}
	for _, r := range res.Driver.Completed {
		w := int64(r.DoneAt) / 1000 / windowUS * windowUS
		rt := float64((r.DoneAt - r.SubmitAt).Microseconds()) / 1000
		if rt > worst[w] {
			worst[w] = rt
		}
	}
	epoch := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	for w := int64(0); ; w += windowUS {
		rt, ok := worst[w]
		if !ok {
			if w > 60_000_000 {
				break
			}
			continue
		}
		ts := epoch.Add(time.Duration(w) * time.Microsecond)
		okFlag := 1
		if rt > 1000 {
			okFlag = 0
		}
		if _, err := fmt.Fprintf(f, "%s probe=edge-1 rt_ms=%.2f ok=%d\n",
			ts.Format(time.RFC3339Nano), rt, okFlag); err != nil {
			return err
		}
	}
	return nil
}
