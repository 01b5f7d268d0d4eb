// Package parsers implements the mScopeParsers of the transformation
// pipeline (paper Section III-B): each parser enriches one monitor's raw
// log into the annotated-XML representation, driven by declarative
// instructions.
//
// Two generic parsers cover most monitors, matching the paper's two
// instruction styles:
//
//   - "token": a regular expression with named groups applied per line
//     (Apache, Tomcat, C-JDBC event logs);
//   - "lines": positional rules over fixed-size line groups (the MySQL
//     slow-query log's five-line records).
//
// Where the two generic methods are insufficient the pipeline falls back
// to customized parsers, exactly as the paper did for SAR: the sar text
// format scatters the date into the banner line and the time into each
// row, iostat interleaves three block types, and collectl's two formats
// carry their schema in their headers.
package parsers

import (
	"fmt"
	"io"
	"regexp"
	"sync"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// Emit receives parsed entries; the transformer wires it to an mxml.Writer.
type Emit func(mxml.Entry) error

// Parser converts one raw log stream into annotated entries.
type Parser interface {
	// Name returns the registry name.
	Name() string
	// Parse reads the log and emits one entry per record.
	Parse(in io.Reader, instr Instructions, emit Emit) error
}

// Malformed describes one input region diverted in degraded mode: a line
// (or buffered partial record line) that could not be parsed, or a
// structurally valid record whose semantics failed.
type Malformed struct {
	// Line is the 1-based line number of the diverted text; 0 when the
	// failure is semantic and no single line is at fault.
	Line int
	// Text is the raw diverted line; empty for semantic failures.
	Text string
	// Err explains why the region was diverted.
	Err error
}

// Recover consumes malformed regions during a degraded parse. Returning a
// non-nil error aborts the parse with that error.
type Recover func(Malformed) error

// DegradedParser is implemented by parsers that can quarantine malformed
// input and resynchronize at the next record boundary instead of failing
// the whole file. The transformer's Quarantine ingest policy requires it.
type DegradedParser interface {
	Parser
	// ParseDegraded emits every parseable record and hands each malformed
	// region to rec. It fails only on I/O-level errors (scanner overflow,
	// emit failures) or when rec asks it to abort.
	ParseDegraded(in io.Reader, instr Instructions, emit Emit, rec Recover) error
}

// Instructions is the declarative specification recorded by the Parsing
// Declaration stage: how a parser should inject semantics into its input.
type Instructions struct {
	// Pattern is the token-mode regular expression; every named group
	// becomes a field.
	Pattern string
	// SkipUnmatched makes token mode ignore non-matching lines instead of
	// failing the file.
	SkipUnmatched bool

	// HeaderLines are skipped at the start of the file.
	HeaderLines int
	// Group is the lines-mode rule list: rule i applies to line i of each
	// fixed-size record.
	Group []LineRule

	// Derive enriches extracted fields with further named-group matches
	// (e.g. pulling the request ID out of a URL or SQL comment).
	Derive []DeriveRule
	// Times normalizes named fields to the canonical mxml time encoding.
	Times []TimeRule
	// Const fields are injected into every entry (e.g. the host name).
	Const map[string]string
}

// LineRule matches one line within a lines-mode record.
type LineRule struct {
	// Pattern is a regular expression with named groups.
	Pattern string
}

// DeriveRule extracts additional fields from an already-extracted field.
type DeriveRule struct {
	// Field is the source field name.
	Field string
	// Pattern is a regular expression with named groups; each group
	// becomes a new field.
	Pattern string
	// Optional suppresses the error when the pattern does not match (the
	// derived fields are simply absent).
	Optional bool
}

// TimeRule normalizes a field from a source layout to mxml.TimeLayout and
// hints it as a time.
type TimeRule struct {
	// Field is the field to normalize.
	Field string
	// Layout is the Go reference layout of the raw value.
	Layout string
}

// Get returns the registered parser with the given name.
func Get(name string) (Parser, error) {
	switch name {
	case "token":
		return tokenParser{}, nil
	case "lines":
		return linesParser{}, nil
	case "mysql-slow":
		return mysqlSlowParser{}, nil
	case "sar":
		return sarParser{}, nil
	case "sar-xml":
		return sarXMLParser{}, nil
	case "iostat":
		return iostatParser{}, nil
	case "collectl":
		return collectlPlainParser{}, nil
	case "collectl-csv":
		return collectlCSVParser{}, nil
	case "pidstat":
		return pidstatParser{}, nil
	case "selftrace":
		return selftraceParser{}, nil
	default:
		return nil, fmt.Errorf("parsers: unknown parser %q", name)
	}
}

// Names lists every registered parser.
func Names() []string {
	return []string{"token", "lines", "mysql-slow", "sar", "sar-xml",
		"iostat", "collectl", "collectl-csv", "pidstat", "selftrace"}
}

// applyCommon applies Derive rules, Times normalization and Const fields
// to an entry, in that order. sc is the caller's reusable match scratch;
// nil allocates one (convenient for one-shot callers).
func applyCommon(e *mxml.Entry, instr Instructions, sc *matchScratch) error {
	if sc == nil && len(instr.Derive) > 0 {
		sc = &matchScratch{}
	}
	for _, d := range instr.Derive {
		src, ok := e.Get(d.Field)
		if !ok {
			if d.Optional {
				continue
			}
			return fmt.Errorf("parsers: derive source field %q absent", d.Field)
		}
		m, err := compileMatcher(d.Pattern)
		if err != nil {
			return err
		}
		if !m.match(src, sc) {
			if d.Optional {
				continue
			}
			return fmt.Errorf("parsers: derive pattern %q did not match %q", d.Pattern, src)
		}
		addGroups(e, m, sc)
	}
	for _, tr := range instr.Times {
		for i := range e.Fields {
			if e.Fields[i].Name != tr.Field {
				continue
			}
			ts, err := time.Parse(tr.Layout, e.Fields[i].Value)
			if err != nil {
				return fmt.Errorf("parsers: normalize time field %q: %w", tr.Field, err)
			}
			e.Fields[i].Value = ts.UTC().Format(mxml.TimeLayout)
			e.Fields[i].Hint = "time"
		}
	}
	for k, v := range instr.Const {
		e.Add(k, v)
	}
	return nil
}

// matcher pairs the regexp compilation of a pattern with its byte-slice
// tokenizer when the pattern fits the tokenizer dialect. The regexp is
// always kept: it is the semantic reference the tokenizer must agree with.
type matcher struct {
	re    *regexp.Regexp
	tok   *tokenizer // nil when the pattern falls outside the dialect
	names []string   // named groups, in order of appearance
	idx   []int      // regexp submatch index for each name
}

// matchScratch holds per-caller reusable match state so the hot loop
// performs no per-line allocation.
type matchScratch struct {
	slots []int
	vals  []string
}

func (sc *matchScratch) grow(n int) {
	if cap(sc.vals) < n {
		sc.vals = make([]string, n)
		sc.slots = make([]int, 2*n)
	}
	sc.vals = sc.vals[:n]
	sc.slots = sc.slots[:2*n]
}

// match tests s and, on success, fills sc.vals with one value per
// m.names. The tokenizer and regexp paths produce identical values
// (pinned by FuzzTokenizerEquivalence).
func (m *matcher) match(s string, sc *matchScratch) bool {
	sc.grow(len(m.names))
	if m.tok != nil {
		if !m.tok.find(s, sc.slots) {
			return false
		}
		for i := range m.names {
			sc.vals[i] = s[sc.slots[2*i]:sc.slots[2*i+1]]
		}
		return true
	}
	g := m.re.FindStringSubmatch(s)
	if g == nil {
		return false
	}
	for i, gi := range m.idx {
		sc.vals[i] = g[gi]
	}
	return true
}

// compileMatcher caches compiled patterns; declarations reuse a small set
// of patterns across millions of lines. The cache is bounded: once full,
// an arbitrary entry is evicted to make room. Evicted matchers stay valid
// for any goroutine already holding them — values are immutable — so
// eviction can never break a concurrent parser, only cost a recompile.
func compileMatcher(pattern string) (*matcher, error) {
	matcherCacheMu.RLock()
	m, ok := matcherCache[pattern]
	matcherCacheMu.RUnlock()
	if ok {
		return m, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("parsers: compile %q: %w", pattern, err)
	}
	m = &matcher{re: re}
	for i, name := range re.SubexpNames() {
		if i == 0 || name == "" {
			continue
		}
		m.names = append(m.names, name)
		m.idx = append(m.idx, i)
	}
	if tok := compileTokenizer(pattern); tok != nil && equalNames(tok.names, m.names) {
		m.tok = tok
	}
	matcherCacheMu.Lock()
	if len(matcherCache) >= matcherCacheCap {
		for k := range matcherCache {
			delete(matcherCache, k)
			break
		}
	}
	matcherCache[pattern] = m
	matcherCacheMu.Unlock()
	return m, nil
}

// equalNames guards the tokenizer against ever disagreeing with the
// regexp about which groups a pattern captures.
func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matcherCache is populated lazily. The batch transformer parses files
// sequentially, but the live pipeline runs one parser goroutine per tailed
// source, so the cache is lock-guarded. matcherCacheCap bounds it against
// synthesized-pattern floods (fuzzing, chaos).
const matcherCacheCap = 256

var (
	matcherCacheMu sync.RWMutex
	matcherCache   = make(map[string]*matcher)
)

// addGroups appends every named group of the scratch's current match to
// the entry.
func addGroups(e *mxml.Entry, m *matcher, sc *matchScratch) {
	for i, name := range m.names {
		e.Add(name, sc.vals[i])
	}
}
