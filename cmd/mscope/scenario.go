package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/scenario"
)

// cmdScenario drives the declarative fault catalogue: list the registry,
// run one entry's trial, or verify entries end to end against their
// registered verdicts.
func cmdScenario(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("scenario: subcommand required (list | run | verify)")
	}
	switch args[0] {
	case "list":
		return cmdScenarioList(args[1:])
	case "run":
		return cmdScenarioRun(args[1:])
	case "verify":
		return cmdScenarioVerify(args[1:])
	default:
		return fmt.Errorf("scenario: unknown subcommand %q (list | run | verify)", args[0])
	}
}

func cmdScenarioList(args []string) error {
	fs := flag.NewFlagSet("scenario list", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the full declarative specs as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := core.Scenarios()
	if !*asJSON {
		fmt.Print(scenario.RenderList(specs))
		return nil
	}
	for i := range specs {
		data, err := specs[i].Encode()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
	}
	return nil
}

// loadScenario resolves --name against the registry or decodes --spec.
func loadScenario(name, specPath string) (*core.Spec, error) {
	switch {
	case name != "" && specPath != "":
		return nil, fmt.Errorf("scenario: --name and --spec are mutually exclusive")
	case name != "":
		s, ok := core.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("scenario: no catalogue entry %q (see `mscope scenario list`)", name)
		}
		return s, nil
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return core.DecodeSpec(data)
	default:
		return nil, fmt.Errorf("scenario: --name or --spec is required")
	}
}

func cmdScenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	name := fs.String("name", "", "catalogue entry to run")
	spec := fs.String("spec", "", "path to a declarative scenario JSON instead of --name")
	work := fs.String("work", "", "scratch directory for logs + warehouse (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *work == "" {
		return fmt.Errorf("scenario run: --work is required")
	}
	s, err := loadScenario(*name, *spec)
	if err != nil {
		return err
	}
	diag, srcDir, err := scenario.Run(s, scenario.Options{WorkDir: *work})
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %d VLRT windows (logs in %s)\n", s.Name, len(diag.Windows), srcDir)
	for _, w := range diag.Windows {
		fmt.Printf("  %s\n", w.Verdict)
	}
	if diag.Degraded() {
		fmt.Printf("  degraded: missing %s\n", strings.Join(diag.MissingSources, ", "))
	}
	return nil
}

func cmdScenarioVerify(args []string) error {
	fs := flag.NewFlagSet("scenario verify", flag.ContinueOnError)
	name := fs.String("name", "", "catalogue entry to verify")
	spec := fs.String("spec", "", "path to a declarative scenario JSON instead of --name")
	all := fs.Bool("all", false, "verify every catalogue entry")
	work := fs.String("work", "", "scratch directory (default: a temp dir, removed on success)")
	live := fs.Bool("live", false, "also replay through the streaming pipeline and require the online detector to agree")
	replay := fs.Duration("replay", 0, "live replay duration (default 3s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []core.Spec
	if *all {
		if *name != "" || *spec != "" {
			return fmt.Errorf("scenario verify: --all excludes --name/--spec")
		}
		specs = core.Scenarios()
	} else {
		s, err := loadScenario(*name, *spec)
		if err != nil {
			return err
		}
		specs = []core.Spec{*s}
	}
	workDir := *work
	if workDir == "" {
		dir, err := os.MkdirTemp("", "mscope-scenario-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}
	opts := scenario.Options{
		WorkDir: workDir, Live: *live, LiveReplay: *replay,
	}
	failed := 0
	for i := range specs {
		out, err := scenario.Verify(&specs[i], opts)
		if err != nil {
			return err
		}
		status := "PASS"
		if !out.Pass {
			status = "FAIL"
			failed++
		}
		timing := out.Elapsed.Round(time.Millisecond).String()
		if out.LiveChecked {
			timing += " batch + " + out.LiveElapsed.Round(time.Millisecond).String() + " live"
		}
		line := fmt.Sprintf("%-4s %-12s %-26s %s", status, out.Name, "("+timing+")", strings.Join(out.Verdicts, ", "))
		if len(out.Waits) > 0 {
			line += "  live: " + strings.Join(out.Waits, "; ")
		}
		fmt.Println(line)
		for _, p := range out.Problems {
			fmt.Printf("       %s\n", p)
		}
	}
	if failed > 0 {
		return fmt.Errorf("scenario verify: %d of %d scenarios failed", failed, len(specs))
	}
	fmt.Printf("%d scenarios verified\n", len(specs))
	return nil
}
