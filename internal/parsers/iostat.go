package parsers

import (
	"bytes"
	"fmt"
	"io"
	"time"
)

// iostatParser handles `iostat -tx` output: repeated reports of a
// timestamp line, an avg-cpu block, and a device table. One entry is
// emitted per device row, carrying both the device metrics and the
// report's CPU percentages.
var iostatParser = format{"iostat", parseIostat}

// iostat column names for the device table, matching the extended format.
var iostatDevCols = []string{
	"rrqm_s", "wrqm_s", "r_s", "w_s", "rkb_s", "wkb_s",
	"avgrq_sz", "avgqu_sz", "await", "r_await", "w_await", "svctm", "util",
}

// iostat avg-cpu column names, as fields.
var iostatCPUCols = []string{"cpu_user", "cpu_nice", "cpu_system", "cpu_iowait", "cpu_steal", "cpu_idle"}

func parseIostat(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	fields, cpu := lineFields(), [][]byte(nil)
	var cpuLine []byte // the report's avg-cpu values, kept past their line
	var ts time.Time
	haveTS := false
	expectCPU := false
	inDevices := false
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		trimmed := bytes.TrimSpace(line)
		switch {
		case len(trimmed) == 0:
			inDevices = false
		case hasPrefix(line, "Linux "):
			// banner; per-report timestamps carry their own date
		case hasPrefix(line, "avg-cpu:"):
			expectCPU = true
		case expectCPU:
			expectCPU = false
			cpuLine = append(cpuLine[:0], trimmed...)
			cpu = fieldsInto(cpuLine, cpu)
			if len(cpu) != len(iostatCPUCols) {
				return fmt.Errorf("parsers: iostat line %d: avg-cpu has %d fields, want %d",
					lineNo, len(cpu), len(iostatCPUCols))
			}
		case hasPrefix(line, "Device:"):
			inDevices = true
		case inDevices:
			if !haveTS || cpu == nil {
				return fmt.Errorf("parsers: iostat line %d: device row before timestamp/cpu", lineNo)
			}
			fields = fieldsInto(trimmed, fields)
			if len(fields) != len(iostatDevCols)+1 {
				return fmt.Errorf("parsers: iostat line %d: device row has %d fields, want %d: %q",
					lineNo, len(fields), len(iostatDevCols)+1, trimmed)
			}
			r.reset()
			r.addTime("ts", ts)
			r.add("device", fields[0])
			for i, col := range iostatDevCols {
				r.add(col, fields[i+1])
			}
			for i, col := range iostatCPUCols {
				r.add(col, cpu[i])
			}
			if err := c.apply(&r); err != nil {
				return fmt.Errorf("parsers: iostat line %d: %w", lineNo, err)
			}
			if err := sink(&r); err != nil {
				return err
			}
		default:
			t, err := time.Parse("01/02/2006 15:04:05.000", string(trimmed))
			if err != nil {
				return fmt.Errorf("parsers: iostat line %d: unrecognized line %q", lineNo, line)
			}
			ts = t.UTC()
			haveTS = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}
