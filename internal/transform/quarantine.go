package transform

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/retry"
)

// Policy selects how the ingest pipeline treats malformed input.
type Policy int

const (
	// FailFast aborts the whole ingest on the first malformed line — the
	// historical behavior and still the default: on a healthy testbed any
	// parse failure is a declaration bug worth stopping for.
	FailFast Policy = iota
	// Quarantine diverts malformed lines and records to a per-file sink
	// and keeps parsing, resynchronizing multi-line parsers at the next
	// record boundary. A file is rejected (not the ingest) when its
	// corrupt-line ratio exceeds the error budget or nothing parses.
	Quarantine
)

// String names the policy for CLI flags and reports.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Quarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail-fast", "failfast":
		return FailFast, nil
	case "quarantine":
		return Quarantine, nil
	default:
		return FailFast, fmt.Errorf("transform: unknown ingest policy %q (want fail-fast or quarantine)", s)
	}
}

// DefaultErrorBudget is the per-file corrupt-line ratio above which a
// quarantine-mode ingest rejects the file: past 5% the surviving records
// no longer representatively sample the tier's traffic.
const DefaultErrorBudget = 0.05

// Options parameterize a policy-aware ingest.
type Options struct {
	// Policy selects FailFast (default) or Quarantine.
	Policy Policy
	// ErrorBudget is the per-file quarantined/(parsed+quarantined) ratio
	// above which the file is rejected; zero means DefaultErrorBudget.
	ErrorBudget float64
	// QuarantineDir receives the per-file quarantine sinks; empty means
	// "<workDir>/quarantine".
	QuarantineDir string
	// Workers is how many files are parsed at once; 0 means one per CPU
	// (runtime.GOMAXPROCS).
	// The warehouse, report and sinks are identical for every value (the
	// engine-vs-oracle suite proves it).
	Workers int
	// Materialize also exports each loaded file's annotated-XML, CSV and
	// schema artifacts to workDir, for inspection or for re-loading through
	// xmlcsv.ConvertFile and xmlcsv.LoadFile. The warehouse is identical
	// either way.
	Materialize bool
}

// errFileRejected marks a per-file quarantine-mode rejection: the file's
// damage exceeded the error budget (or nothing parsed at all). IngestDir
// records these in Report.Failed and continues with the remaining files.
var errFileRejected = errors.New("file rejected")

// FileFailure records one rejected file in a quarantine-mode ingest.
type FileFailure struct {
	// Input is the source file path.
	Input string
	// Err wraps errFileRejected with the rejection cause.
	Err error
}

// CheckBudget rejects an error budget outside [0, 1]: a negative one
// rejects every file, one above 1 can never trip, and NaN disables the
// check. Zero stays valid and means DefaultErrorBudget.
func CheckBudget(b float64) error {
	if !(b >= 0 && b <= 1) {
		return fmt.Errorf("error budget %v outside [0, 1]", b)
	}
	return nil
}

// budget returns the effective error budget.
func (o Options) budget() float64 {
	if o.ErrorBudget == 0 {
		return DefaultErrorBudget
	}
	return o.ErrorBudget
}

// quarantineDir returns the effective sink directory.
func (o Options) quarantineDir(workDir string) string {
	if o.QuarantineDir != "" {
		return o.QuarantineDir
	}
	return filepath.Join(workDir, "quarantine")
}

// quarantineSink lazily creates "<dir>/<base>.quarantine" and records each
// diverted region as a located comment line followed by the raw text. The
// mutex makes record safe to call from concurrent parsers; entries stay
// whole, though cross-goroutine interleaving order is up to the caller to
// control where byte-identical sinks matter.
type quarantineSink struct {
	dir  string
	base string

	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
	n  int
}

// Quarantine sink creation retries transient fs failures (EMFILE under the
// ingest's fan-out, a dir briefly missing mid-rotation) instead of
// surfacing them as a lost malformed region. Package vars so tests inject a
// flaky fs and a recording sleep.
var (
	sinkRetry  = retry.Default
	sinkCreate = os.Create
)

func (q *quarantineSink) record(m parsers.Malformed) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		var f *os.File
		err := sinkRetry.Do(func() error {
			if err := os.MkdirAll(q.dir, 0o755); err != nil {
				return err
			}
			var cerr error
			f, cerr = sinkCreate(filepath.Join(q.dir, q.base+".quarantine"))
			return cerr
		})
		if err != nil {
			return fmt.Errorf("transform: create quarantine sink: %w", err)
		}
		q.f = f
		q.w = bufio.NewWriter(f)
	}
	q.n++
	if m.Line > 0 {
		fmt.Fprintf(q.w, "# %s:%d: %v\n%s\n", q.base, m.Line, m.Err, m.Text)
	} else {
		fmt.Fprintf(q.w, "# %s: %v\n", q.base, m.Err)
	}
	return nil
}

// path returns the sink file path, or "" when nothing was quarantined.
func (q *quarantineSink) path() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		return ""
	}
	return filepath.Join(q.dir, q.base+".quarantine")
}

// count returns how many regions have been recorded.
func (q *quarantineSink) count() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (q *quarantineSink) close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		return nil
	}
	if err := q.w.Flush(); err != nil {
		return err
	}
	return q.f.Close()
}

// checkBudget applies the quarantine-mode acceptance tests to a parsed
// file: reject (wrapping errFileRejected) when nothing survived or the
// corrupt-region ratio exceeds the error budget.
func (o Options) checkBudget(out FileResult, path string) error {
	if out.Entries == 0 {
		return fmt.Errorf("transform: %s: %w: no records survived (%d quarantined)",
			path, errFileRejected, out.Quarantined)
	}
	total := out.Entries + out.Quarantined
	if ratio := float64(out.Quarantined) / float64(total); ratio > o.budget() {
		return fmt.Errorf("transform: %s: %w: corrupt-line ratio %.4f exceeds error budget %.4f (%d of %d regions quarantined)",
			path, errFileRejected, ratio, o.budget(), out.Quarantined, total)
	}
	return nil
}

// sortDeterministic orders every report slice by input name so callers and
// tests can rely on stable output regardless of how the report was built.
func (r *Report) sortDeterministic() {
	sort.Slice(r.Files, func(i, j int) bool { return r.Files[i].Input < r.Files[j].Input })
	sort.Strings(r.Skipped)
	sort.Strings(r.Unchanged)
	sort.Slice(r.Failed, func(i, j int) bool { return r.Failed[i].Input < r.Failed[j].Input })
}
