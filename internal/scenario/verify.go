// Package scenario executes the fault catalogue (core.Scenarios): Run
// generates, ingests and diagnoses one entry's trial, and Verify holds the
// diagnosis — and, with Options.Live, the online detector — to the
// entry's expected verdicts.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Options tunes scenario execution and verification.
type Options struct {
	// WorkDir is the scratch root; each scenario works in its own
	// subdirectory. Required.
	WorkDir string
	// Live additionally replays the trial's logs through the streaming
	// pipeline and requires the online detector to reach the same
	// conclusions as the batch diagnosis.
	Live bool
	// LiveReplay is the wall time the replay is spread over (default 3s).
	LiveReplay time.Duration
}

// Outcome reports one scenario verification.
type Outcome struct {
	Name   string
	Family string
	// Pass is true when batch — and live, if checked — matched every
	// expected verdict with no contradicting windows.
	Pass bool
	// Problems lists every mismatch, batch and live.
	Problems []string
	// Verdicts renders the diagnosed windows (batch); Waits what each
	// live alert waited for (stream.Alert.Waited), in raise order.
	Verdicts []string
	Waits    []string
	// Degraded mirrors the batch diagnosis' partial-evidence flag.
	Degraded bool
	// Elapsed is the batch run+ingest+diagnose wall time; LiveElapsed the
	// replay+stream time (zero unless live was checked).
	Elapsed     time.Duration
	LiveElapsed time.Duration
	LiveChecked bool
}

// observed is one diagnosed window in matcher form, shared by batch
// windows and live alerts.
type observed struct {
	kind             core.CauseKind
	node             string
	startUS, endUS   int64
	degraded         bool
	missing, verdict string
}

func (o observed) String() string {
	epochUS := simtime.Epoch.UnixMicro()
	return fmt.Sprintf("%s@%s [%v – %v]", o.kind, o.node,
		time.Duration(o.startUS-epochUS)*time.Microsecond,
		time.Duration(o.endUS-epochUS)*time.Microsecond)
}

// Run executes the scenario's trial and batch workflow: simulate with the
// armed injectors, apply any post-run log deletion, ingest, diagnose. It
// returns the diagnosis plus the directory holding the (possibly
// corrupted) logs the diagnosis consumed — the same files a live replay
// must stream.
func Run(s *core.Spec, opts Options) (*core.Diagnosis, string, error) {
	if opts.WorkDir == "" {
		return nil, "", fmt.Errorf("scenario %s: no work dir", s.Name)
	}
	logDir := filepath.Join(opts.WorkDir, s.Name, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, "", err
	}
	cfg, err := s.Build(logDir)
	if err != nil {
		return nil, "", err
	}
	if _, err := core.RunExperiment(cfg); err != nil {
		return nil, "", fmt.Errorf("scenario %s: run: %w", s.Name, err)
	}
	srcDir := logDir
	if len(s.DeleteTiers) > 0 {
		srcDir = filepath.Join(opts.WorkDir, s.Name, "corrupted")
		fcfg := faults.Config{
			Seed:        s.Seed,
			Kinds:       []faults.Kind{faults.KindDeleteTier},
			DeleteTiers: s.DeleteTiers,
		}
		if _, err := faults.Corrupt(logDir, srcDir, fcfg); err != nil {
			return nil, "", fmt.Errorf("scenario %s: delete tiers: %w", s.Name, err)
		}
	}
	db := mscopedb.Open()
	ingestDir := filepath.Join(opts.WorkDir, s.Name, "ingest")
	if _, err := transform.IngestDir(db, srcDir, ingestDir, transform.DefaultPlan()); err != nil {
		return nil, "", fmt.Errorf("scenario %s: ingest: %w", s.Name, err)
	}
	diag, err := core.Diagnose(db, core.DefaultWindow)
	if err != nil {
		return nil, "", fmt.Errorf("scenario %s: diagnose: %w", s.Name, err)
	}
	return diag, srcDir, nil
}

// Verify runs the scenario end to end and checks its diagnosis against the
// registered expectation; with Options.Live it additionally replays the
// logs through the streaming pipeline and holds the online detector to the
// same verdicts. Mismatches land in Outcome.Problems, not in the error —
// an error means the scenario could not be executed at all.
func Verify(s *core.Spec, opts Options) (*Outcome, error) {
	out := &Outcome{Name: s.Name, Family: s.Family}
	start := time.Now()
	diag, srcDir, err := Run(s, opts)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	out.Degraded = diag.Degraded()

	var obs []observed
	for _, w := range diag.Windows {
		o := observed{
			kind: w.Kind, node: w.Node,
			startUS: w.Window.StartMicros, endUS: w.Window.EndMicros,
			degraded: diag.Degraded(),
			missing:  strings.Join(diag.MissingSources, ","),
			verdict:  w.Verdict,
		}
		obs = append(obs, o)
		out.Verdicts = append(out.Verdicts, o.String())
	}
	for _, p := range matchExpect(s, obs) {
		out.Problems = append(out.Problems, "batch: "+p)
	}

	if opts.Live {
		liveStart := time.Now()
		alerts, err := replayLive(s, srcDir, opts)
		if err != nil {
			return nil, err
		}
		out.LiveElapsed = time.Since(liveStart)
		out.LiveChecked = true
		var lobs []observed
		for _, a := range alerts {
			out.Waits = append(out.Waits, a.Waited())
			lobs = append(lobs, observed{
				kind: a.Diagnosis.Kind, node: a.Diagnosis.Node,
				startUS:  a.Diagnosis.Window.StartMicros,
				endUS:    a.Diagnosis.Window.EndMicros,
				degraded: len(a.Missing) > 0,
				missing:  strings.Join(a.Missing, ","),
				verdict:  a.Diagnosis.Verdict,
			})
		}
		for _, p := range matchExpect(s, lobs) {
			out.Problems = append(out.Problems, "live: "+p)
		}
	}
	out.Pass = len(out.Problems) == 0
	return out, nil
}

// replayLive streams the scenario's logs at wall-clock pace through the
// live pipeline and returns the alerts the online detector raised.
func replayLive(s *core.Spec, srcDir string, opts Options) ([]stream.Alert, error) {
	replay := opts.LiveReplay
	if replay <= 0 {
		replay = 3 * time.Second
	}
	liveDir := filepath.Join(opts.WorkDir, s.Name, "live")
	prod, err := stream.NewProducer(stream.ProducerConfig{
		SrcDir: srcDir, DstDir: liveDir, Duration: replay,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: producer: %w", s.Name, err)
	}
	pipe, err := stream.New(stream.Config{LogDir: liveDir})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: pipeline: %w", s.Name, err)
	}
	pipe.Start()
	if err := prod.Run(); err != nil {
		_ = pipe.Stop()
		return nil, fmt.Errorf("scenario %s: replay: %w", s.Name, err)
	}
	if err := pipe.Stop(); err != nil {
		return nil, fmt.Errorf("scenario %s: stop pipeline: %w", s.Name, err)
	}
	return pipe.Alerts(), nil
}

// matchExpect checks observed windows against the spec's expectation:
// every expected verdict must be met by at least one window with the right
// kind, node, overlap and degradation, and every observed window must
// satisfy some expectation — a spurious contradicting verdict fails the
// scenario. An empty expectation asserts a clean run (no windows).
func matchExpect(s *core.Spec, obs []observed) []string {
	epochUS := simtime.Epoch.UnixMicro()
	var problems []string
	matched := make([]bool, len(obs))
	for i := range s.Expect {
		e := &s.Expect[i]
		kind, _ := core.ParseCauseKind(e.Kind)
		lo := epochUS + (e.From - e.Tol).D().Microseconds()
		hi := epochUS + (e.To + e.Tol).D().Microseconds()
		found := false
		for j, o := range obs {
			if o.kind != kind || o.node != e.Node {
				continue
			}
			if o.startUS > hi || o.endUS < lo {
				continue
			}
			// A degraded expectation requires the verdict to have been
			// reached on partial evidence naming the right sources. (The
			// reverse is not enforced: a live alert may legitimately fire
			// before a straggler source appears.)
			if e.Degraded && (!o.degraded || !missingCovered(e.Missing, o.missing)) {
				continue
			}
			matched[j] = true
			found = true
		}
		if !found {
			problems = append(problems, fmt.Sprintf(
				"expected %s@%s in [%v – %v] not diagnosed",
				e.Kind, e.Node, (e.From-e.Tol).D(), (e.To+e.Tol).D()))
		}
	}
	for j, o := range obs {
		if !matched[j] {
			problems = append(problems, fmt.Sprintf(
				"unexpected window %s (%s)", o.String(), o.verdict))
		}
	}
	return problems
}

// missingCovered checks every required missing-source substring appears in
// the observed missing list.
func missingCovered(want []string, got string) bool {
	for _, w := range want {
		if !strings.Contains(got, w) {
			return false
		}
	}
	return true
}
