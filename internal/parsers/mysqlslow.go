package parsers

import (
	"fmt"
	"io"
	"strconv"
	"time"
)

// mysqlSlowParser specializes the generic lines parser for the MySQL
// slow-query log: after extracting the five-line record it computes the
// event-monitor boundary timestamps — ua from "# Time:" and ud as
// ua + Query_time — so that MySQL records join the other tiers' event
// tables on the same microsecond-epoch columns. In degraded mode structural
// damage is handled by the lines parser's record-boundary resync, and records
// whose timestamps fail to decode are diverted as semantic failures.
var mysqlSlowParser = degradable{format{"mysql-slow", parseMySQLSlow}}

// mysqlSlowInstr is the fixed declaration for the slow-log record shape.
var mysqlSlowInstr = Instructions{
	HeaderLines: 3,
	Group: []LineRule{
		{Pattern: `^# Time: (?P<time>\S+)$`},
		{Pattern: `^# User@Host: \S+\[\S+\] @ (?P<caller>\S+) \[\S+\]  Id: +(?P<connid>\d+)$`},
		{Pattern: `^# Query_time: (?P<query_time>[0-9.]+)  Lock_time: (?P<lock_time>[0-9.]+) Rows_sent: (?P<rows_sent>\d+)  Rows_examined: (?P<rows_examined>\d+)$`},
		{Pattern: `^SET timestamp=(?P<set_ts>\d+);$`},
		{Pattern: `^(?P<sql>.*);$`},
	},
	Derive: []DeriveRule{
		{Field: "sql", Pattern: `/\*ID=(?P<reqid>req-\d+) q=(?P<q>\d+)\*/`, Optional: true},
	},
}

// mysqlTimeLayout parses the "# Time:" value.
const mysqlTimeLayout = "2006-01-02T15:04:05.000000Z"

func parseMySQLSlow(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	// User instructions may add Const fields; the record shape is fixed.
	fixed := mysqlSlowInstr
	fixed.Const = instr.Const
	return parseLines(in, fixed, func(r *Record) error {
		if err := slowRecordTimes(r); err != nil {
			if rec != nil {
				return rec(Malformed{Err: err})
			}
			return err
		}
		return sink(r)
	}, rec)
}

// slowRecordTimes adds ua, ud and ts to a structurally complete record.
func slowRecordTimes(r *Record) error {
	c := r.find("time")
	if c == nil {
		return fmt.Errorf("parsers: mysql-slow record without time")
	}
	tRaw := r.text(c)
	ua, err := time.Parse(mysqlTimeLayout, string(tRaw))
	if err != nil {
		return fmt.Errorf("parsers: mysql-slow time %q: %w", tRaw, err)
	}
	if c = r.find("query_time"); c == nil {
		return fmt.Errorf("parsers: mysql-slow record without query_time")
	}
	qtRaw := r.text(c)
	qt, err := strconv.ParseFloat(string(qtRaw), 64)
	if err != nil {
		return fmt.Errorf("parsers: mysql-slow query_time %q: %w", qtRaw, err)
	}
	ud := ua.Add(time.Duration(qt * float64(time.Second)))
	*r.next() = Cell{Name: "ua", Kind: CellInt, Int: ua.UnixMicro()}
	*r.next() = Cell{Name: "ud", Kind: CellInt, Int: ud.UnixMicro()}
	r.addTime("ts", ua)
	return nil
}
