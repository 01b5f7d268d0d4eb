package selfobs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// timeLayout is the fixed-width wall-clock layout of self-telemetry
// timestamps: RFC 3339 with exactly nine fractional digits, UTC. The
// fixed width keeps the log byte-stable for golden tests and lets the
// registered "selftrace" parser use the stock RFC3339Nano time rule.
const timeLayout = "2006-01-02T15:04:05.000000000Z07:00"

// FormatLine renders one record as a milliScope-native timestamped token
// line:
//
//	<ts> mscope-self kind=<span|counter> batch=<id> pipeline=<p> stage=<s> span=<label> file=<name|-> dur_us=<n> items=<n> errs=<n>
//
// ts is epoch+StartNS in timeLayout (UTC); dur_us is DurNS rounded down
// to microseconds, the warehouse's native resolution. Empty Span/File
// fields render as "-", and embedded whitespace is squashed to "_" so
// every line stays a single space-separated token sequence.
func FormatLine(epoch time.Time, batch string, r Rec) string {
	var b strings.Builder
	b.Grow(160)
	b.WriteString(epoch.Add(time.Duration(r.StartNS)).UTC().Format(timeLayout))
	b.WriteString(" mscope-self kind=")
	b.WriteString(token(r.Kind))
	b.WriteString(" batch=")
	b.WriteString(token(batch))
	b.WriteString(" pipeline=")
	b.WriteString(token(r.Pipeline))
	b.WriteString(" stage=")
	b.WriteString(token(r.Stage))
	b.WriteString(" span=")
	b.WriteString(token(r.Span))
	b.WriteString(" file=")
	b.WriteString(token(r.File))
	b.WriteString(" dur_us=")
	b.WriteString(strconv.FormatInt(r.DurNS/1e3, 10))
	b.WriteString(" items=")
	b.WriteString(strconv.FormatInt(r.Items, 10))
	b.WriteString(" errs=")
	b.WriteString(strconv.FormatInt(r.Errs, 10))
	return b.String()
}

// token sanitizes a field value into a single log token.
func token(s string) string {
	if s == "" {
		return "-"
	}
	if strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }) < 0 {
		return s
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r':
			return '_'
		}
		return r
	}, s)
}

// Snapshot returns the collector's records — flushed spans plus a
// point-in-time snapshot of the non-zero counters — sorted by start time
// (ties broken lexically) so output is deterministic regardless of which
// worker flushed first.
func (c *Collector) Snapshot() []Rec {
	c.mu.Lock()
	recs := make([]Rec, len(c.recs))
	copy(recs, c.recs)
	c.mu.Unlock()
	recs = append(recs, c.snapshotCounters()...)
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return a.File < b.File
	})
	return recs
}

// WriteLog renders every gathered record to w in the self-telemetry log
// format and returns the number of lines written. Call after the
// instrumented work finishes (open Bufs flush on Close; spans still open
// are not written).
func (c *Collector) WriteLog(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	recs := c.Snapshot()
	for _, r := range recs {
		if _, err := bw.WriteString(FormatLine(c.epoch, c.batch, r)); err != nil {
			return 0, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return 0, err
		}
	}
	return len(recs), bw.Flush()
}
