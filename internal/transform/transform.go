// Package transform implements mScopeDataTransformer (paper Section
// III-B): the multi-stage pipeline that unifies heterogeneous monitoring
// logs into the warehouse.
//
// Stage 1, Parsing Declaration, is a declarative registry (Plan) mapping
// log-file patterns to a parser and its instructions. Stage 2 executes the
// bound mScopeParser, stage 3 types its cells into a table the way the
// mScope XMLtoCSV Converter would, and stage 4, the mScope Data Importer,
// installs the table and records one ingest-ledger row for its file.
package transform

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/simtime"
)

// Binding is one Parsing Declaration entry: files matching Glob are parsed
// by Parser with the given Instructions.
type Binding struct {
	// Glob matches the file's base name (path.Match syntax).
	Glob string `json:"glob"`
	// Parser is the registry name (see parsers.Get).
	Parser string `json:"parser"`
	// Instructions govern how the parser injects semantics.
	Instructions parsers.Instructions `json:"instructions"`
	// Source is the monitor identity recorded in the document meta.
	Source string `json:"source"`
	// TableSuffix forms the target table name as "<host>_<suffix>".
	TableSuffix string `json:"table_suffix"`
	// Host fixes the host name; when empty the host is derived from the
	// file name (the stem before the first underscore).
	Host string `json:"host,omitempty"`
}

// Plan is the full Parsing Declaration: the binding list consulted in
// order (first match wins).
type Plan struct {
	Bindings []Binding `json:"bindings"`
}

// DefaultPlan declares every format the simulated testbed produces: the
// four event-monitor logs, both SAR paths, iostat, both collectl modes,
// and milliScope's own self-telemetry log (internal/selfobs).
func DefaultPlan() *Plan {
	date := simtime.Epoch.Format("2006-01-02")
	return &Plan{Bindings: []Binding{
		{Glob: "*_access.log", Parser: "token", Instructions: parsers.ApacheInstructions(),
			Source: "apache-event", TableSuffix: "event"},
		{Glob: "*_mscope.log", Parser: "token", Instructions: parsers.TomcatInstructions(),
			Source: "tomcat-event", TableSuffix: "event"},
		{Glob: "*_ctrl.log", Parser: "token", Instructions: parsers.CJDBCInstructions(),
			Source: "cjdbc-event", TableSuffix: "event"},
		{Glob: "*_slow.log", Parser: "mysql-slow", Source: "mysql-event", TableSuffix: "event"},
		{Glob: "*_sar.log", Parser: "sar", Source: "sar", TableSuffix: "sar"},
		{Glob: "*_sar.xml", Parser: "sar-xml", Source: "sar-xml", TableSuffix: "sarxml"},
		{Glob: "*_iostat.log", Parser: "iostat", Source: "iostat", TableSuffix: "iostat"},
		{Glob: "*_collectl.log", Parser: "collectl", Source: "collectl", TableSuffix: "collectl",
			Instructions: parsers.Instructions{Const: map[string]string{"date": date}}},
		{Glob: "*_collectl.csv", Parser: "collectl-csv", Source: "collectl-csv", TableSuffix: "collectlcsv"},
		{Glob: "*_pidstat.log", Parser: "pidstat", Source: "pidstat", TableSuffix: "pidstat"},
		{Glob: "*_selftrace.log", Parser: "selftrace", Source: "selfobs", TableSuffix: "selftrace"},
	}}
}

// Find returns the first binding matching the file's base name. A
// malformed glob matches nothing; validate reports it.
func (p *Plan) Find(filename string) (Binding, bool) {
	base := filepath.Base(filename)
	for _, b := range p.Bindings {
		if ok, _ := filepath.Match(b.Glob, base); ok {
			return b, true
		}
	}
	return Binding{}, false
}

// validate rejects declarations that can never work: a glob
// filepath.Match cannot compile would silently match no file, and an
// unregistered parser name would only surface per file, mid-ingest.
func (p *Plan) validate() error {
	for i, b := range p.Bindings {
		if _, err := filepath.Match(b.Glob, ""); err != nil {
			return fmt.Errorf("binding %d: glob %q: %w", i, b.Glob, err)
		}
		if _, err := parsers.Get(b.Parser); err != nil {
			return fmt.Errorf("binding %d: parser %q: %w", i, b.Parser, err)
		}
	}
	return nil
}

// Save writes the plan as JSON — the declaration is data, not code.
func (p *Plan) Save(path string) error {
	if err := p.validate(); err != nil {
		return fmt.Errorf("transform: save plan: %w", err)
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return fmt.Errorf("transform: marshal plan: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("transform: write plan: %w", err)
	}
	return nil
}

// LoadPlan reads a JSON plan.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("transform: read plan: %w", err)
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("transform: parse plan %s: %w", path, err)
	}
	if len(p.Bindings) == 0 {
		return nil, fmt.Errorf("transform: plan %s has no bindings", path)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("transform: plan %s: %w", path, err)
	}
	return &p, nil
}

// HostOf derives the warehouse host for a file under a binding: the
// binding's fixed host, or else the stem of the file name before the first
// underscore ("mysql_collectl.csv" → "mysql"). The streaming pipeline names
// tables the same way so both load the same warehouse shape.
func HostOf(filename string, b Binding) string {
	if b.Host != "" {
		return b.Host
	}
	base := filepath.Base(filename)
	if i := strings.IndexByte(base, '_'); i > 0 {
		return base[:i]
	}
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// FileResult reports one file the ingest accepted.
type FileResult struct {
	Input    string
	Parser   string
	Table    string
	MXMLPath string
	Entries  int
	// Quarantined counts malformed regions diverted under the Quarantine
	// policy; always zero under FailFast.
	Quarantined int
	// QuarantinePath is the sink file holding the diverted regions; empty
	// when nothing was quarantined.
	QuarantinePath string
}

// Report summarizes a full directory ingest. All slices are sorted by
// input name so reports are deterministic.
type Report struct {
	// Files are the files loaded, one warehouse table each.
	Files   []FileResult
	Skipped []string
	// Unchanged lists files the ingest ledger proved fully loaded already
	// (recorded byte offset equals current size): re-running an ingest
	// over the same directory re-reads nothing and duplicates no rows.
	Unchanged []string
	// Failed lists files rejected under the Quarantine policy (error
	// budget breached or nothing parsed); always empty under FailFast,
	// where the first failure aborts the ingest instead.
	Failed []FileFailure
}

// TotalRows returns the number of warehouse rows loaded.
func (r Report) TotalRows() int {
	n := 0
	for _, f := range r.Files {
		n += f.Entries
	}
	return n
}

// TotalQuarantined sums the quarantined regions across accepted files.
func (r Report) TotalQuarantined() int {
	n := 0
	for _, f := range r.Files {
		n += f.Quarantined
	}
	return n
}

// IngestDir runs the whole pipeline over a log directory under the
// default FailFast policy: for each file with a declaration, parse →
// convert → load into db. Files with no binding are reported in Skipped,
// not failed: a log directory routinely contains artifacts (network
// traces, notes) outside the declaration. See IngestDirWithOptions for
// the Quarantine degraded mode.
func IngestDir(db *mscopedb.DB, logDir, workDir string, plan *Plan) (Report, error) {
	return IngestDirWithOptions(db, logDir, workDir, plan, Options{})
}
