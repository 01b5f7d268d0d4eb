package parsers

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// scanner wraps bufio.Scanner with a generous line limit (SQL statements
// and URLs can be long) and line counting for error messages.
func newScanner(in io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return sc
}

// blank reports whether a line is empty or all white space.
func blank(line []byte) bool { return len(bytes.TrimSpace(line)) == 0 }

// tokenParser is the generic single-line regex parser ("specific string
// tokens, expressed as regular expressions" in the paper). In degraded mode
// unmatched and semantically invalid lines are diverted instead of failing
// the file; every other line still gives a record.
var tokenParser = degradable{format{"token", parseToken}}

func parseToken(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	if instr.Pattern == "" {
		return fmt.Errorf("parsers: token mode requires a pattern")
	}
	mt, err := compileMatcher(instr.Pattern)
	if err != nil {
		return err
	}
	c, err := compile(instr, mt.names)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if lineNo <= instr.HeaderLines || blank(line) {
			continue
		}
		var bad error
		if !mt.match(line, &c.sc) {
			if instr.SkipUnmatched {
				continue
			}
			bad = fmt.Errorf("parsers: line %d does not match token pattern: %q", lineNo, line)
		} else {
			r.reset()
			r.addGroups(mt, line, c.sc.slots)
			err := c.apply(&r)
			if err == nil {
				if err := sink(&r); err != nil {
					return err
				}
				continue
			}
			bad = fmt.Errorf("parsers: line %d: %w", lineNo, err)
		}
		if rec == nil {
			return bad
		}
		if err := rec(Malformed{Line: lineNo, Text: string(line), Err: bad}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}

// linesParser is the generic fixed-size line-group parser ("the sequence
// of lines in a file" instruction style). In degraded mode a malformed
// record is diverted and the parser resynchronizes at the next line matching
// the first group rule (the record boundary), so one torn or garbage line
// costs only its enclosing record.
var linesParser = degradable{format{"lines", parseLines}}

func parseLines(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	if len(instr.Group) == 0 {
		return fmt.Errorf("parsers: lines mode requires group rules")
	}
	rules := make([]*matcher, len(instr.Group))
	var base []string
	for i, g := range instr.Group {
		mt, err := compileMatcher(g.Pattern)
		if err != nil {
			return err
		}
		rules[i] = mt
		base = append(base, mt.names...)
	}
	c, err := compile(instr, base)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	// pending is the open record's lines, held in the record's buffer.
	type heldLine struct {
		no   int
		text []byte
	}
	var pending []heldLine
	// divert hands the open record's lines to rec and starts over.
	divert := func(cause error) error {
		for _, p := range pending {
			if err := rec(Malformed{Line: p.no, Text: string(p.text), Err: cause}); err != nil {
				return err
			}
		}
		pending = pending[:0]
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if lineNo <= instr.HeaderLines {
			continue
		}
	retry:
		idx := len(pending)
		if idx == 0 && blank(line) {
			continue // blank separators between groups
		}
		mt := rules[idx]
		if !mt.match(line, &c.sc) {
			err := fmt.Errorf("parsers: line %d does not match group rule %d (%q): %q",
				lineNo, idx, instr.Group[idx].Pattern, line)
			if rec == nil {
				return err
			}
			if idx != 0 {
				// Abandon the partial record, then re-test this line as a
				// possible start of the next record.
				if err := divert(err); err != nil {
					return err
				}
				goto retry
			}
			if err := rec(Malformed{Line: lineNo, Text: string(line), Err: err}); err != nil {
				return err
			}
			continue
		}
		if idx == 0 {
			r.reset()
		}
		held := r.hold(line)
		r.addGroups(mt, held, c.sc.slots)
		pending = append(pending, heldLine{lineNo, held})
		if len(pending) < len(rules) {
			continue
		}
		if err := c.apply(&r); err != nil {
			err = fmt.Errorf("parsers: record ending line %d: %w", lineNo, err)
			if rec == nil {
				return err
			}
			if err := divert(err); err != nil {
				return err
			}
			continue
		}
		if err := sink(&r); err != nil {
			return fmt.Errorf("parsers: record ending line %d: %w", lineNo, err)
		}
		pending = pending[:0]
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	if len(pending) != 0 {
		err := fmt.Errorf("parsers: truncated record at end of file (started line %d): got %d of %d lines",
			pending[0].no, len(pending), len(rules))
		if rec == nil {
			return err
		}
		return divert(err)
	}
	return nil
}
