package parsers

import (
	"bytes"
	"fmt"
	"io"
	"time"
)

// pidstatParser handles per-process CPU reports: a sysstat banner (the
// date), periodically repeated column headers, and one row per process per
// sample. Like the legacy SAR format, the date and the row clock must be
// stitched together, so it is a customized parser.
var pidstatParser = format{"pidstat", parsePidstat}

// pidstatCols names the fields of a row,
// "HH:MM:SS.mmm uid pid %usr %system %guest %cpu core cmd", after the
// clock; %guest is not kept.
var pidstatCols = []string{"uid", "pid", "usr", "system", "", "cpu", "core", "command"}

func parsePidstat(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	fields := lineFields()
	var date time.Time
	haveDate := false
	sawHeader := false
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		switch {
		case blank(line):
		case hasPrefix(line, "Linux "):
			if date, err = sarBannerDate(string(line)); err != nil {
				return fmt.Errorf("parsers: pidstat line %d: %w", lineNo, err)
			}
			haveDate = true
		case bytes.Contains(line, []byte("%usr")):
			sawHeader = true
		default:
			if !haveDate || !sawHeader {
				return fmt.Errorf("parsers: pidstat line %d: data before banner/header", lineNo)
			}
			line = bytes.TrimSpace(line)
			fields = fieldsInto(line, fields)
			if len(fields) != len(pidstatCols)+1 {
				return fmt.Errorf("parsers: pidstat line %d: row has %d fields, want 9: %q", lineNo, len(fields), line)
			}
			ts, err := clockOn(date, fields[0])
			if err != nil {
				return fmt.Errorf("parsers: pidstat line %d: row timestamp %q: %w", lineNo, fields[0], err)
			}
			r.reset()
			r.addTime("ts", ts)
			for i, col := range pidstatCols {
				if col != "" {
					r.add(col, fields[i+1])
				}
			}
			if err := c.apply(&r); err != nil {
				return fmt.Errorf("parsers: pidstat line %d: %w", lineNo, err)
			}
			if err := sink(&r); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}
