// Package eventmon implements the paper's event mScopeMonitors (Section
// IV): per-tier instrumentation that records the four boundary timestamps
// of every visit into each component's native log format, propagating a
// fixed-width request ID from the Apache URL down to SQL comments
// (Appendix A).
//
// The monitors trace every request — no sampling — and pay for it through
// the component's existing logging infrastructure: each record costs a
// small CPU charge (1–3% of a node's CPU at the paper's workloads) and
// roughly doubles the node's log write volume (Figure 10).
package eventmon

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/ntier"
)

// Standard log file names; the transform pipeline's Parsing Declaration
// stage binds parsers to these patterns.
const (
	apacheLogName = "apache_access.log"
	tomcatLogName = "tomcat_mscope.log"
	cjdbcLogName  = "cjdbc_ctrl.log"
	mysqlLogName  = "mysql_slow.log"
)

// Overhead models the cost of writing one monitor record on a tier.
type Overhead struct {
	// CPUPerRecord is burned in system mode per log record.
	CPUPerRecord time.Duration
}

// Config tunes per-tier monitor overheads.
type Config struct {
	Apache, Tomcat, CJDBC, MySQL Overhead

	// PhaseDetail enables verbose per-phase tracing: each visit writes
	// this many additional phase records (lock acquisition, handler
	// entry/exit, marshalling, ...) beyond the paper's minimal
	// four-timestamp record. Zero is the paper's design. Verbose logs are
	// an overhead ablation only — the standard declarations do not parse
	// the extra records.
	PhaseDetail int
}

// DefaultConfig matches the paper's measured overheads: ~1% CPU for Apache
// and C-JDBC, ~3% for Tomcat (its extra logging thread handles the
// variable-width downstream records), modest for MySQL's slow-query log.
func DefaultConfig() Config {
	return Config{
		Apache: Overhead{CPUPerRecord: 70 * time.Microsecond},
		Tomcat: Overhead{CPUPerRecord: 210 * time.Microsecond},
		CJDBC:  Overhead{CPUPerRecord: 18 * time.Microsecond},
		MySQL:  Overhead{CPUPerRecord: 40 * time.Microsecond},
	}
}

// Set is the collection of event monitors attached to a system, one per
// tier, writing into a log directory.
type Set struct {
	// Paths maps monitor name ("apache", "tomcat", "cjdbc", "mysql") to
	// its log file path.
	Paths map[string]string

	files   []*os.File
	writers []*bufio.Writer
	records uint64
}

// AttachWithConfig instruments every tier with explicit overheads.
func AttachWithConfig(sys *ntier.System, dir string, cfg Config) (*Set, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventmon: create log dir: %w", err)
	}
	set := &Set{Paths: make(map[string]string)}
	open := func(name string) (*bufio.Writer, string, error) {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			return nil, "", fmt.Errorf("eventmon: create %s: %w", p, err)
		}
		set.files = append(set.files, f)
		w := bufio.NewWriterSize(f, 1<<16)
		set.writers = append(set.writers, w)
		return w, p, nil
	}

	apacheW, apachePath, err := open(apacheLogName)
	if err != nil {
		return nil, err
	}
	tomcatW, tomcatPath, err := open(tomcatLogName)
	if err != nil {
		set.Close()
		return nil, err
	}
	cjdbcW, cjdbcPath, err := open(cjdbcLogName)
	if err != nil {
		set.Close()
		return nil, err
	}
	mysqlW, mysqlPath, err := open(mysqlLogName)
	if err != nil {
		set.Close()
		return nil, err
	}
	if _, err := mysqlW.WriteString(logfmt.MySQLHeader()); err != nil {
		set.Close()
		return nil, fmt.Errorf("eventmon: write mysql header: %w", err)
	}
	set.Paths["apache"] = apachePath
	set.Paths["tomcat"] = tomcatPath
	set.Paths["cjdbc"] = cjdbcPath
	set.Paths["mysql"] = mysqlPath

	sys.Web.Observe(&monitor{set: set, w: apacheW, cpu: cfg.Apache.CPUPerRecord,
		format: formatApache, phases: cfg.PhaseDetail})
	sys.App.Observe(&monitor{set: set, w: tomcatW, cpu: cfg.Tomcat.CPUPerRecord,
		format: formatTomcat, phases: cfg.PhaseDetail})
	sys.Mid.Observe(&monitor{set: set, w: cjdbcW, cpu: cfg.CJDBC.CPUPerRecord,
		format: formatCJDBC, phases: cfg.PhaseDetail})
	sys.DB.Observe(&monitor{set: set, w: mysqlW, cpu: cfg.MySQL.CPUPerRecord,
		format: formatMySQL, phases: cfg.PhaseDetail})
	return set, nil
}

// Records returns the number of monitor records written.
func (s *Set) Records() uint64 { return s.records }

// Close flushes and closes every monitor log file. It must be called after
// the simulation finishes and before the transform pipeline reads the logs.
func (s *Set) Close() error {
	var firstErr error
	for _, w := range s.writers {
		if err := w.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("eventmon: flush: %w", err)
		}
	}
	for _, f := range s.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("eventmon: close: %w", err)
		}
	}
	s.writers = nil
	s.files = nil
	return firstErr
}

// monitor is one tier's event mScopeMonitor.
type monitor struct {
	set    *Set
	w      *bufio.Writer
	cpu    time.Duration
	format func(v *ntier.Visit) string
	phases int
}

var _ ntier.VisitObserver = (*monitor)(nil)

// OnVisitComplete writes the visit's record in the component's native
// format and charges the logging overhead to the component's node.
func (m *monitor) OnVisitComplete(v *ntier.Visit) {
	rec := m.format(v)
	if _, err := m.w.WriteString(rec); err != nil {
		// A full disk aborts the experiment: there is no sensible way to
		// continue a tracing run that silently drops records.
		panic(fmt.Sprintf("eventmon: write record: %v", err))
	}
	m.set.records++
	bytes := len(rec)
	cpu := m.cpu
	for p := 0; p < m.phases; p++ {
		line := fmt.Sprintf("# PHASE %d id=%s tier=%s t=%d dur_us=%d ctx=worker/%d\n",
			p, v.Req.ID(), v.Server.Name(), v.Server.Node().Wall(v.UA).UnixMicro(),
			(v.UD - v.UA).Microseconds(), v.Req.Serial%64)
		if _, err := m.w.WriteString(line); err != nil {
			panic(fmt.Sprintf("eventmon: write phase record: %v", err))
		}
		bytes += len(line)
		cpu += m.cpu / 2
	}
	v.Server.ChargeLog(bytes, cpu, true)
}

// wall converts the four virtual boundary timestamps to the node's skewed
// wall clock; zero virtual timestamps (no downstream call) stay zero.
func wall(v *ntier.Visit) (ua, ud, ds, dr time.Time) {
	n := v.Server.Node()
	ua = n.Wall(v.UA)
	ud = n.Wall(v.UD)
	if v.DS != 0 {
		ds = n.Wall(v.DS)
	}
	if v.DR != 0 {
		dr = n.Wall(v.DR)
	}
	return ua, ud, ds, dr
}

func formatApache(v *ntier.Visit) string {
	ua, ud, ds, dr := wall(v)
	uri := fmt.Sprintf("%s?ID=%s", v.Req.Interaction.URI, v.Req.ID())
	clientIP := fmt.Sprintf("10.1.%d.%d", v.Req.Session/250+1, v.Req.Session%250+1)
	return logfmt.ApacheAccess(clientIP, "GET", uri, 200,
		v.Req.Interaction.RespKB*1024, ua, ud, ds, dr) + "\n"
}

func formatTomcat(v *ntier.Visit) string {
	ua, ud, ds, dr := wall(v)
	thread := int(v.Req.Serial%25) + 1
	return logfmt.TomcatLine(thread, v.Req.ID(), v.Req.Interaction.URI, ua, ud, ds, dr) + "\n"
}

func formatCJDBC(v *ntier.Visit) string {
	ua, ud, ds, dr := wall(v)
	return logfmt.CJDBCLine("rubbos", v.Req.ID(), v.Seq, ua, ud, ds, dr, v.SQL) + "\n"
}

func formatMySQL(v *ntier.Visit) string {
	ua, ud, _, _ := wall(v)
	connID := int(v.Req.Serial%60) + 10
	rowsSent := 1 + int(v.Req.Serial%10)
	return logfmt.MySQLSlowRecord(connID, ua, ud, rowsSent, rowsSent*37,
		v.SQL, v.Req.ID(), v.Seq)
}
