package parsers

import (
	"bufio"
	"fmt"
	"io"

	"strings"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// scanner wraps bufio.Scanner with a generous line limit (SQL statements
// and URLs can be long) and line counting for error messages.
func newScanner(in io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return sc
}

// tokenParser is the generic single-line regex parser ("specific string
// tokens, expressed as regular expressions" in the paper).
type tokenParser struct{}

var _ Parser = tokenParser{}
var _ DegradedParser = tokenParser{}

func (tokenParser) Name() string { return "token" }

func (tokenParser) Parse(in io.Reader, instr Instructions, emit Emit) error {
	return tokenParser{}.parse(in, instr, emit, nil)
}

// ParseDegraded diverts unmatched and semantically invalid lines to rec
// instead of failing the file; every other line still emits a record.
func (tokenParser) ParseDegraded(in io.Reader, instr Instructions, emit Emit, rec Recover) error {
	if rec == nil {
		return fmt.Errorf("parsers: token degraded mode requires a Recover sink")
	}
	return tokenParser{}.parse(in, instr, emit, rec)
}

// parse is the shared token loop; rec == nil selects fail-fast semantics.
func (tokenParser) parse(in io.Reader, instr Instructions, emit Emit, rec Recover) error {
	if instr.Pattern == "" {
		return fmt.Errorf("parsers: token mode requires a pattern")
	}
	mt, err := compileMatcher(instr.Pattern)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var scratch matchScratch
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if lineNo <= instr.HeaderLines || strings.TrimSpace(line) == "" {
			continue
		}
		if !mt.match(line, &scratch) {
			if instr.SkipUnmatched {
				continue
			}
			err := fmt.Errorf("parsers: line %d does not match token pattern: %q", lineNo, line)
			if rec == nil {
				return err
			}
			if rerr := rec(Malformed{Line: lineNo, Text: line, Err: err}); rerr != nil {
				return rerr
			}
			continue
		}
		e := mxml.NewEntry()
		addGroups(&e, mt, &scratch)
		if err := applyCommon(&e, instr, &scratch); err != nil {
			e.Release()
			err = fmt.Errorf("parsers: line %d: %w", lineNo, err)
			if rec == nil {
				return err
			}
			if rerr := rec(Malformed{Line: lineNo, Text: line, Err: err}); rerr != nil {
				return rerr
			}
			continue
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}

// linesParser is the generic fixed-size line-group parser ("the sequence
// of lines in a file" instruction style).
type linesParser struct{}

var _ Parser = linesParser{}
var _ DegradedParser = linesParser{}

func (linesParser) Name() string { return "lines" }

func (linesParser) Parse(in io.Reader, instr Instructions, emit Emit) error {
	return linesParser{}.parse(in, instr, emit, nil)
}

// ParseDegraded diverts malformed records to rec and resynchronizes at the
// next line matching the first group rule (the record boundary), so one
// torn or garbage line costs only its enclosing record.
func (linesParser) ParseDegraded(in io.Reader, instr Instructions, emit Emit, rec Recover) error {
	if rec == nil {
		return fmt.Errorf("parsers: lines degraded mode requires a Recover sink")
	}
	return linesParser{}.parse(in, instr, emit, rec)
}

// parse is the shared lines-mode loop; rec == nil selects fail-fast
// semantics.
func (linesParser) parse(in io.Reader, instr Instructions, emit Emit, rec Recover) error {
	if len(instr.Group) == 0 {
		return fmt.Errorf("parsers: lines mode requires group rules")
	}
	compiled := make([]*matcher, len(instr.Group))
	for i, r := range instr.Group {
		mt, err := compileMatcher(r.Pattern)
		if err != nil {
			return err
		}
		compiled[i] = mt
	}
	sc := newScanner(in)
	var scratch matchScratch
	lineNo := 0
	e := mxml.NewEntry()
	var pending []Malformed // the open record's lines, Err unset
	idx := 0
	// divert hands the current partial record to rec and resets the state.
	// The partial entry was never emitted, so its storage is reused.
	divert := func(cause error) error {
		for _, p := range pending {
			p.Err = cause
			if rerr := rec(p); rerr != nil {
				return rerr
			}
		}
		pending = pending[:0]
		e.Fields = e.Fields[:0]
		idx = 0
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if lineNo <= instr.HeaderLines {
			continue
		}
	retry:
		if idx == 0 && strings.TrimSpace(line) == "" {
			continue // blank separators between groups
		}
		mt := compiled[idx]
		if !mt.match(line, &scratch) {
			err := fmt.Errorf("parsers: line %d does not match group rule %d (%q): %q",
				lineNo, idx, instr.Group[idx].Pattern, line)
			if rec == nil {
				return err
			}
			if idx != 0 {
				// Abandon the partial record, then re-test this line as a
				// possible start of the next record.
				if rerr := divert(err); rerr != nil {
					return rerr
				}
				goto retry
			}
			if rerr := rec(Malformed{Line: lineNo, Text: line, Err: err}); rerr != nil {
				return rerr
			}
			continue
		}
		addGroups(&e, mt, &scratch)
		pending = append(pending, Malformed{Line: lineNo, Text: line})
		idx++
		if idx == len(compiled) {
			if err := applyCommon(&e, instr, &scratch); err != nil {
				err = fmt.Errorf("parsers: record ending line %d: %w", lineNo, err)
				if rec == nil {
					return err
				}
				if rerr := divert(err); rerr != nil {
					return rerr
				}
				continue
			}
			if err := emit(e); err != nil {
				return fmt.Errorf("parsers: record ending line %d: %w", lineNo, err)
			}
			e = mxml.NewEntry()
			pending = pending[:0]
			idx = 0
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	if idx != 0 {
		err := fmt.Errorf("parsers: truncated record at end of file (started line %d): got %d of %d lines",
			pending[0].Line, idx, len(compiled))
		if rec == nil {
			return err
		}
		if rerr := divert(err); rerr != nil {
			return rerr
		}
	}
	return nil
}
