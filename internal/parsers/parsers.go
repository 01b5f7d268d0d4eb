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
	"sort"
	"sync"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// Emit receives parsed entries; see Entries for how they are built.
type Emit func(mxml.Entry) error

// Parser converts one raw log stream into records.
type Parser interface {
	// Name returns the registry name.
	Name() string
	// ParseRecords reads the log and hands sink one record per log record;
	// it is the one parse loop a format has. A nil rec fails on the first
	// malformed region; a DegradedParser accepts a rec to divert them to.
	ParseRecords(in io.Reader, instr Instructions, sink Sink, rec Recover) error
	// Parse is ParseRecords, fail-fast, with each record turned into an entry.
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
// the whole file: given a Recover, their ParseRecords hands every parseable
// record to the sink and each malformed region to the Recover, and fails
// only on I/O-level errors (scanner overflow, sink failures) or when the
// Recover asks it to abort. The transformer's Quarantine ingest policy
// requires it.
type DegradedParser interface {
	Parser
	degraded()
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
	// Const fields are injected into every record (e.g. the host name),
	// after its own fields and in key order.
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

// format is a registered parser: a name and the format's parse loop.
type format struct {
	name  string
	parse func(in io.Reader, instr Instructions, sink Sink, rec Recover) error
}

// degradable is a format whose loop honours a Recover.
type degradable struct{ format }

var registry = []Parser{
	tokenParser, linesParser, mysqlSlowParser, sarParser, sarXMLParser,
	iostatParser, collectlPlainParser, collectlCSVParser, pidstatParser, selftraceParser,
}

// Get returns the registered parser with the given name.
func Get(name string) (Parser, error) {
	for _, p := range registry {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("parsers: unknown parser %q", name)
}

// Names lists every registered parser.
func Names() []string {
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name()
	}
	return names
}

func (f format) Name() string { return f.name }

func (f format) ParseRecords(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	if rec != nil {
		return fmt.Errorf("parsers: %s has no degraded mode", f.name)
	}
	return f.parse(in, instr, sink, nil)
}

func (f format) Parse(in io.Reader, instr Instructions, emit Emit) error {
	return f.parse(in, instr, entrySink(emit), nil)
}

func (d degradable) ParseRecords(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	return d.parse(in, instr, sink, rec)
}

func (degradable) degraded() {}

// compiled is an instruction set resolved once per parse: the derive
// matchers, where each Times rule finds its cells, and the constants in
// key order (a map's order would differ from record to record).
type compiled struct {
	derive []deriveStep
	times  []timeStep
	consts []Cell
	// base counts the cells every record of the parse opens with; times[i].at
	// indexes them, and only the cells after them are searched by name.
	base int
	sc   matchScratch
}

type deriveStep struct {
	DeriveRule
	m *matcher
}

type timeStep struct {
	TimeRule
	at []int
}

// compile resolves instr for a format whose records all open with the cells
// named base, in that order; nil when the format cannot promise any.
func compile(instr Instructions, base []string) (*compiled, error) {
	c := &compiled{base: len(base)}
	for _, d := range instr.Derive {
		m, err := compileMatcher(d.Pattern)
		if err != nil {
			return nil, err
		}
		c.derive = append(c.derive, deriveStep{d, m})
	}
	for _, tr := range instr.Times {
		st := timeStep{TimeRule: tr}
		for i, name := range base {
			if name == tr.Field {
				st.at = append(st.at, i)
			}
		}
		c.times = append(c.times, st)
	}
	keys := make([]string, 0, len(instr.Const))
	for k := range instr.Const {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.consts = append(c.consts, Cell{Name: k, Text: []byte(instr.Const[k])})
	}
	return c, nil
}

// apply runs the Derive rules, the Times normalization and the Const
// fields over a record, in that order.
func (c *compiled) apply(r *Record) error {
	for i := range c.derive {
		d := &c.derive[i]
		src := r.find(d.Field)
		if src == nil {
			if d.Optional {
				continue
			}
			return fmt.Errorf("parsers: derive source field %q absent", d.Field)
		}
		text := r.text(src)
		if !d.m.match(text, &c.sc) {
			if d.Optional {
				continue
			}
			return fmt.Errorf("parsers: derive pattern %q did not match %q", d.Pattern, text)
		}
		r.addGroups(d.m, text, c.sc.slots)
	}
	for i := range c.times {
		t := &c.times[i]
		for _, k := range t.at {
			if err := r.normalizeTime(&r.Cells[k], t.Layout); err != nil {
				return err
			}
		}
		for k := c.base; k < len(r.Cells); k++ {
			if r.Cells[k].Name != t.Field {
				continue
			}
			if err := r.normalizeTime(&r.Cells[k], t.Layout); err != nil {
				return err
			}
		}
	}
	r.Cells = append(r.Cells, c.consts...)
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
// performs no per-line allocation: slots[2i:2i+2] bounds group i in the
// matched text, both -1 for a group that took no part.
type matchScratch struct {
	slots []int
}

// match tests s and, on success, fills sc.slots with the bounds of each of
// m.names. The tokenizer and regexp paths produce identical bounds
// (pinned by FuzzTokenizerEquivalence).
func (m *matcher) match(s []byte, sc *matchScratch) bool {
	if n := 2 * len(m.names); cap(sc.slots) < n {
		sc.slots = make([]int, n)
	} else {
		sc.slots = sc.slots[:n]
	}
	if m.tok != nil {
		return m.tok.find(s, sc.slots)
	}
	loc := m.re.FindSubmatchIndex(s)
	if loc == nil {
		return false
	}
	for i, gi := range m.idx {
		sc.slots[2*i], sc.slots[2*i+1] = loc[2*gi], loc[2*gi+1]
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
