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
	ua, ok := mysqlTime(tRaw)
	if !ok {
		var err error
		if ua, err = time.Parse(mysqlTimeLayout, string(tRaw)); err != nil {
			return fmt.Errorf("parsers: mysql-slow time %q: %w", tRaw, err)
		}
	}
	if c = r.find("query_time"); c == nil {
		return fmt.Errorf("parsers: mysql-slow record without query_time")
	}
	qtRaw := r.text(c)
	qt, ok := decimalSeconds(qtRaw)
	if !ok {
		f, err := strconv.ParseFloat(string(qtRaw), 64)
		if err != nil {
			return fmt.Errorf("parsers: mysql-slow query_time %q: %w", qtRaw, err)
		}
		qt = time.Duration(f * float64(time.Second))
	}
	ud := ua.Add(qt)
	*r.next() = Cell{Name: "ua", Kind: CellInt, Int: ua.UnixMicro()}
	*r.next() = Cell{Name: "ud", Kind: CellInt, Int: ud.UnixMicro()}
	r.addTime("ts", ua)
	return nil
}

// mysqlTime decodes a "# Time:" value written in exactly mysqlTimeLayout,
// to the value time.Parse gives it. Any other text — another width, a comma
// before the fraction, a field out of range — is declined, and the caller
// has time.Parse decide.
func mysqlTime(b []byte) (time.Time, bool) {
	if len(b) != len(mysqlTimeLayout) || b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != '.' || b[26] != 'Z' {
		return time.Time{}, false
	}
	num := func(lo, hi int) int {
		v := 0
		for _, c := range b[lo:hi] {
			if c < '0' || c > '9' {
				return -1
			}
			v = 10*v + int(c-'0')
		}
		return v
	}
	year, month, day := num(0, 4), num(5, 7), num(8, 10)
	hour, minute, sec, micro := num(11, 13), num(14, 16), num(17, 19), num(20, 26)
	if year < 0 || month < 1 || month > 12 || day < 1 || hour < 0 || hour > 23 ||
		minute < 0 || minute > 59 || sec < 0 || sec > 59 || micro < 0 {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(month), day, hour, minute, sec, micro*1000, time.UTC)
	if t.Day() != day { // the 31st of a 30-day month, Feb 29 of a common year
		return time.Time{}, false
	}
	return t, true
}

// decimalSeconds reads a Query_time value of digits with at most one '.' as
// an exact duration: whole seconds plus the fraction's first nine digits.
// Values of a billion seconds or more, and text that is not such a
// decimal, are declined for strconv.ParseFloat to judge.
func decimalSeconds(b []byte) (time.Duration, bool) {
	var whole, frac int64
	point, digits, scale := false, 0, int64(time.Second)
	for _, c := range b {
		switch {
		case c == '.' && !point:
			point = true
		case c < '0' || c > '9':
			return 0, false
		case !point:
			if whole >= 1e8 {
				return 0, false
			}
			whole = 10*whole + int64(c-'0')
			digits++
		default:
			if scale > 1 {
				scale /= 10
				frac += int64(c-'0') * scale
			}
			digits++
		}
	}
	if digits == 0 {
		return 0, false
	}
	return time.Duration(whole)*time.Second + time.Duration(frac), true
}
