package parsers

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// mysqlSlowParser specializes the generic lines parser for the MySQL
// slow-query log: after extracting the five-line record it computes the
// event-monitor boundary timestamps — ua from "# Time:" and ud as
// ua + Query_time — so that MySQL records join the other tiers' event
// tables on the same microsecond-epoch columns.
type mysqlSlowParser struct{}

var _ Parser = mysqlSlowParser{}
var _ DegradedParser = mysqlSlowParser{}

func (mysqlSlowParser) Name() string { return "mysql-slow" }

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

func (mysqlSlowParser) Parse(in io.Reader, instr Instructions, emit Emit) error {
	// User instructions may add Const fields; the record shape is fixed.
	fixed := mysqlSlowInstr
	fixed.Const = instr.Const
	return linesParser{}.parse(in, fixed, finishSlowRecord(emit, nil), nil)
}

// ParseDegraded quarantines malformed slow-log input: structural damage is
// handled by the lines parser's record-boundary resync, and records whose
// timestamps fail to decode are diverted as semantic failures.
func (mysqlSlowParser) ParseDegraded(in io.Reader, instr Instructions, emit Emit, rec Recover) error {
	if rec == nil {
		return fmt.Errorf("parsers: mysql-slow degraded mode requires a Recover sink")
	}
	fixed := mysqlSlowInstr
	fixed.Const = instr.Const
	return linesParser{}.parse(in, fixed, finishSlowRecord(emit, rec), rec)
}

// finishSlowRecord wraps emit with the slow-log semantic stage: compute the
// event-monitor boundary timestamps from "# Time:" and Query_time. With a
// non-nil rec, semantic failures are diverted instead of failing the file.
func finishSlowRecord(emit Emit, rec Recover) Emit {
	return func(e mxml.Entry) error {
		err := slowRecordTimes(&e)
		if err != nil {
			if rec != nil {
				return rec(Malformed{Err: err})
			}
			return err
		}
		return emit(e)
	}
}

// slowRecordTimes derives ua, ud and ts on a structurally complete record.
func slowRecordTimes(e *mxml.Entry) error {
	tRaw, ok := e.Get("time")
	if !ok {
		return fmt.Errorf("parsers: mysql-slow record without time")
	}
	ua, err := time.Parse(mysqlTimeLayout, tRaw)
	if err != nil {
		return fmt.Errorf("parsers: mysql-slow time %q: %w", tRaw, err)
	}
	qtRaw, ok := e.Get("query_time")
	if !ok {
		return fmt.Errorf("parsers: mysql-slow record without query_time")
	}
	qt, err := strconv.ParseFloat(qtRaw, 64)
	if err != nil {
		return fmt.Errorf("parsers: mysql-slow query_time %q: %w", qtRaw, err)
	}
	ud := ua.Add(time.Duration(qt * float64(time.Second)))
	e.Add("ua", strconv.FormatInt(ua.UnixMicro(), 10))
	e.Add("ud", strconv.FormatInt(ud.UnixMicro(), 10))
	e.AddTyped("ts", ua.UTC().Format(mxml.TimeLayout), "time")
	return nil
}
