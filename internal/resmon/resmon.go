// Package resmon implements the resource mScopeMonitors: simulated SAR,
// iostat and collectl processes that sample each node's true resource
// counters at a configurable (millisecond-scale) interval and write
// reports in each tool's native file format. The heterogeneity of these
// formats — plain-text SAR, XML SAR (the paper's "newer version" path),
// multi-block iostat reports, collectl brief and CSV modes — is exactly
// what mScopeDataTransformer exists to unify.
package resmon

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/resources"
	"github.com/gt-elba/milliscope/internal/simtime"
)

// Kind selects a resource monitoring tool and output format.
type Kind int

// Supported resource monitors.
const (
	// SARText is classic `sar` plain-text output (the legacy path with a
	// custom parser in the paper's Figure 3).
	SARText Kind = iota + 1
	// SARXML is `sadf -x` XML output (the upgraded path that bypasses the
	// custom parser).
	SARXML
	// Iostat is `iostat -tx` extended device reports.
	Iostat
	// CollectlPlain is collectl's brief terminal format.
	CollectlPlain
	// CollectlCSV is collectl's -P plot format, including the memory
	// subsystem (dirty pages) used in the paper's Section V-B.
	CollectlCSV
	// Pidstat is per-process CPU accounting: the component server process
	// and the kernel flusher thread each get a row, which is how CPU burnt
	// by dirty-page recycling is attributed to its consumer.
	Pidstat
)

func (k Kind) String() string {
	switch k {
	case SARText:
		return "sar"
	case SARXML:
		return "sar-xml"
	case Iostat:
		return "iostat"
	case CollectlPlain:
		return "collectl"
	case CollectlCSV:
		return "collectl-csv"
	case Pidstat:
		return "pidstat"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// fileName returns the log file name for a node/kind pair; the transform
// pipeline's declarations match on these suffixes.
func fileName(node string, kind Kind) string {
	switch kind {
	case SARText:
		return node + "_sar.log"
	case SARXML:
		return node + "_sar.xml"
	case Iostat:
		return node + "_iostat.log"
	case CollectlPlain:
		return node + "_collectl.log"
	case CollectlCSV:
		return node + "_collectl.csv"
	case Pidstat:
		return node + "_pidstat.log"
	default:
		panic(fmt.Sprintf("resmon: unknown kind %d", int(kind)))
	}
}

// Config describes the monitoring deployment for one run.
type Config struct {
	// Interval is the sampling period (the paper's point: it can be tens
	// of milliseconds without perturbing the system).
	Interval time.Duration
	// Kinds lists which monitors run on every tier node.
	Kinds []Kind
	// CPUPerSample is the sampling overhead burned per tick per monitor.
	CPUPerSample time.Duration
}

// DefaultConfig samples every 50 ms with collectl CSV plus SAR XML.
func DefaultConfig() Config {
	return Config{
		Interval:     50 * time.Millisecond,
		Kinds:        []Kind{CollectlCSV, SARXML},
		CPUPerSample: 30 * time.Microsecond,
	}
}

// Set is the deployed collection of resource monitors.
type Set struct {
	// Paths maps "<node>/<kind>" to the written file path.
	Paths map[string]string

	monitors []*monitor
	files    []*os.File
}

// Start deploys the configured monitors on every tier node, sampling until
// virtual time `until`, writing into dir.
func Start(sys *ntier.System, dir string, cfg Config, until des.Time) (*Set, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("resmon: non-positive interval %v", cfg.Interval)
	}
	if len(cfg.Kinds) == 0 {
		return nil, fmt.Errorf("resmon: no monitor kinds configured")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resmon: create log dir: %w", err)
	}
	set := &Set{Paths: make(map[string]string)}
	for _, srv := range sys.Servers() {
		for _, kind := range cfg.Kinds {
			p := filepath.Join(dir, fileName(srv.Name(), kind))
			f, err := os.Create(p)
			if err != nil {
				set.Close()
				return nil, fmt.Errorf("resmon: create %s: %w", p, err)
			}
			set.files = append(set.files, f)
			m := &monitor{
				srv:  srv,
				kind: kind,
				w:    bufio.NewWriterSize(f, 1<<15),
				cpu:  cfg.CPUPerSample,
			}
			set.monitors = append(set.monitors, m)
			set.Paths[srv.Name()+"/"+kind.String()] = p
			m.start(sys.Eng, cfg.Interval, until)
		}
	}
	return set, nil
}

// Close finalizes documents (SAR XML epilogue), flushes and closes files.
func (s *Set) Close() error {
	var firstErr error
	for _, m := range s.monitors {
		if err := m.finish(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range s.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("resmon: close: %w", err)
		}
	}
	s.monitors = nil
	s.files = nil
	return firstErr
}

// Deterministic identities for the pidstat rows.
const (
	procUID    = 48 // apache-ish uid
	procPID    = 2817
	flusherPID = 153
)

// processOf names the main server process on a tier node.
func processOf(node string) string {
	switch node {
	case "apache":
		return "httpd"
	case "tomcat", "cjdbc":
		return "java"
	case "mysql":
		return "mysqld"
	default:
		return node + "d"
	}
}

// monitor samples one node with one tool.
type monitor struct {
	srv  *ntier.Server
	kind Kind
	w    *bufio.Writer
	cpu  time.Duration

	prev    resources.Snapshot
	rows    int
	started bool
}

func (m *monitor) start(eng *des.Engine, interval time.Duration, until des.Time) {
	m.prev = m.srv.Node().Snap()
	m.writeHeader()
	eng.Every(des.Time(interval), interval, func(now des.Time) bool {
		m.sample()
		return now >= until
	})
}

func (m *monitor) node() *resources.Node { return m.srv.Node() }

func (m *monitor) writeHeader() {
	n := m.node()
	date := simtime.Epoch
	var err error
	switch m.kind {
	case SARText:
		_, err = m.w.WriteString(logfmt.SARHeader(n.Name(), n.Config().Cores, date) + "\n")
	case SARXML:
		_, err = m.w.WriteString(logfmt.SARXMLOpen(n.Name(), n.Config().Cores, date))
	case Iostat:
		_, err = m.w.WriteString(logfmt.IostatHeader(n.Name(), n.Config().Cores, date) + "\n")
	case CollectlPlain:
		_, err = m.w.WriteString(logfmt.CollectlPlainHeader())
	case CollectlCSV:
		_, err = m.w.WriteString(logfmt.CollectlCSVHeader())
	case Pidstat:
		_, err = m.w.WriteString(logfmt.SARHeader(n.Name(), n.Config().Cores, date) + "\n")
	}
	if err != nil {
		panic(fmt.Sprintf("resmon: write header: %v", err))
	}
}

// sample takes one interval report and writes it.
func (m *monitor) sample() {
	n := m.node()
	snap := n.Snap()
	iv := resources.Diff(m.prev, snap, n.Config().Cores)
	m.prev = snap
	ts := n.Wall(snap.At)

	var rec string
	switch m.kind {
	case SARText:
		if m.rows%20 == 0 {
			rec = logfmt.SARCPUColumns(ts) + "\n"
		}
		rec += logfmt.SARCPURow(ts, iv) + "\n"
	case SARXML:
		rec = logfmt.SARXMLTimestamp(ts, iv)
	case Iostat:
		rec = logfmt.IostatReport(ts, "sda", iv)
	case CollectlPlain:
		rec = logfmt.CollectlPlainRow(ts, iv) + "\n"
	case CollectlCSV:
		rec = logfmt.CollectlCSVRow(ts, iv) + "\n"
	case Pidstat:
		if m.rows%20 == 0 {
			rec = logfmt.PidstatColumns(ts) + "\n"
		}
		appPct := iv.UserPct + iv.SystemPct - iv.FlusherPct
		rec += logfmt.PidstatRow(ts, procUID, procPID, iv.UserPct,
			iv.SystemPct-iv.FlusherPct, appPct, 0, processOf(n.Name())) + "\n"
		rec += logfmt.PidstatRow(ts, 0, flusherPID, 0, iv.FlusherPct,
			iv.FlusherPct, 1, "kworker/u16:flush") + "\n"
	}
	if _, err := m.w.WriteString(rec); err != nil {
		panic(fmt.Sprintf("resmon: write sample: %v", err))
	}
	m.rows++
	// Sampling overhead: a short system-mode burn, the cost the paper
	// keeps negligible by leaning on existing tools.
	if m.cpu > 0 {
		n.CPU.Exec(m.cpu, resources.ModeSystem, nil)
	}
}

// finish writes format epilogues and flushes.
func (m *monitor) finish() error {
	if m.kind == SARXML {
		if _, err := m.w.WriteString(logfmt.SARXMLClose()); err != nil {
			return fmt.Errorf("resmon: close sar xml: %w", err)
		}
	}
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("resmon: flush: %w", err)
	}
	return nil
}
