package parsers

import (
	"bufio"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// nonBlankLines counts input lines a parser's scanner will consider
// content, mirroring bufio.ScanLines semantics (split on '\n', trailing
// "\r" stripped, final line without a newline still counted).
func nonBlankLines(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// FuzzApacheAccessLog asserts parser totality on arbitrary access-log
// bytes: the strict parse either errors or consumes every content line,
// the degraded parse accounts for every content line as exactly one
// emitted record or one quarantined region, and neither ever panics.
func FuzzApacheAccessLog(f *testing.F) {
	good := `10.1.0.1 - - [01/Apr/2017:00:00:12.345 +0000] "GET /rubbos/ViewStory?ID=req-0000000001 HTTP/1.1" 200 100 D=2123 UA=1491004812345678 UD=1491004812347801 DS=1491004812346000 DR=1491004812347500`
	noDown := `10.1.0.1 - - [01/Apr/2017:00:00:12.345 +0000] "GET /rubbos/Browse?ID=req-0000000002 HTTP/1.1" 200 100 D=900 UA=1491004812345678 UD=1491004812346578 DS=- DR=-`
	f.Add(good + "\n")
	f.Add(good + "\n" + noDown + "\n")
	f.Add(good + "\nGARBAGE LINE\n" + good + "\n")
	f.Add("\x00\x1f\x7f<<chaos-garbage deadbeef>>\x00\n")
	f.Add(good[:40] + "\n" + good[40:] + "\n") // torn mid-line
	f.Add("")
	f.Add("\n\n\n")
	f.Add(good + "\r\n")

	instr := ApacheInstructions()
	f.Fuzz(func(t *testing.T, input string) {
		content := nonBlankLines(input)

		strict := 0
		err := tokenParser.Parse(strings.NewReader(input), instr,
			func(mxml.Entry) error { strict++; return nil })
		if err == nil && strict != content {
			t.Fatalf("strict parse succeeded with %d records for %d content lines", strict, content)
		}

		emitted, quarantined := 0, 0
		err = tokenParser.ParseRecords(strings.NewReader(input), instr,
			func(*Record) error { emitted++; return nil },
			func(Malformed) error { quarantined++; return nil })
		if err != nil {
			// The only legitimate degraded failure is scanner overflow on a
			// pathological line.
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("degraded parse failed: %v", err)
			}
			return
		}
		if emitted+quarantined != content {
			t.Fatalf("degraded parse lost lines: %d emitted + %d quarantined != %d content",
				emitted, quarantined, content)
		}
	})
}

// FuzzMySQLSlowLog asserts the five-line-record parser never panics on
// arbitrary slow-log bytes and that degraded mode agrees with a
// successful strict parse (same records, nothing quarantined).
func FuzzMySQLSlowLog(f *testing.F) {
	header := "mysqld, Version: 5.7\nTcp port: 3306\nTime                 Id Command    Argument\n"
	record := "# Time: 2017-04-01T00:00:12.345678Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n" +
		"# Query_time: 0.001234  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n" +
		"SET timestamp=1491004812;\n" +
		"SELECT * FROM items WHERE id=7 /*ID=req-0000000001 q=0*/;\n"
	f.Add(header + record)
	f.Add(header + record + record)
	f.Add(header + record[:80]) // truncated mid-record
	f.Add(header + "# Time: not-a-time\n" + record)
	f.Add(header + strings.Replace(record, "# Query_time", "\x00torn\n# Query_time", 1))
	f.Add("")
	f.Add(record) // record lines eaten as header

	f.Fuzz(func(t *testing.T, input string) {
		strict := 0
		strictErr := mysqlSlowParser.Parse(strings.NewReader(input), Instructions{},
			func(mxml.Entry) error { strict++; return nil })

		emitted, quarantined := 0, 0
		err := mysqlSlowParser.ParseRecords(strings.NewReader(input), Instructions{},
			func(*Record) error { emitted++; return nil },
			func(Malformed) error { quarantined++; return nil })
		if err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("degraded parse failed: %v", err)
			}
			return
		}
		if strictErr == nil && (emitted != strict || quarantined != 0) {
			t.Fatalf("strict parsed %d records cleanly but degraded gave %d emitted, %d quarantined",
				strict, emitted, quarantined)
		}
		if strictErr != nil && emitted > strict {
			// Degraded mode may salvage fewer-or-equal records than strict
			// managed before dying, plus records past the damage — it must
			// never fabricate more records than the input's record
			// boundaries allow.
			boundaries := strings.Count(input, "# Time:")
			if emitted > boundaries {
				t.Fatalf("degraded emitted %d records for %d boundaries", emitted, boundaries)
			}
		}
	})
}

// FuzzMySQLTimeMatchesTimeParse pins the fixed-layout "# Time:" decoder to
// time.Parse: what it decodes, time.Parse decodes to the same instant in
// the same location; what it declines, slowRecordTimes hands to
// time.Parse. It declines nothing written in exactly the layout.
func FuzzMySQLTimeMatchesTimeParse(f *testing.F) {
	for _, s := range []string{
		"2017-04-01T00:00:12.345678Z",
		"2016-02-29T00:00:00.000000Z", // a leap day
		"2017-02-29T00:00:00.000000Z", // not one
		"2017-01-31T12:00:00.000001Z",
		"2017-04-31T12:00:00.000001Z", // April has 30
		"2017-12-31T23:59:59.999999Z",
		"2017-04-01T24:00:00.000000Z",
		"2017-04-01T00:00:60.000000Z",
		"2017-04-01T00:00:12.34567Z",   // five fraction digits
		"2017-04-01T00:00:12.3456789Z", // seven
		"2017-4-01T00:00:12.345678Z",
		"2017-04-01T0:00:12.3456789Z", // one hour digit, same length
		"2017-04-01T00:00:12,345678Z",
		"2017-04-01T00:00:12.+12345Z",
		"0000-01-01T00:00:00.000000Z",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := mysqlTime([]byte(s))
		want, err := time.Parse(mysqlTimeLayout, s)
		if !ok {
			if err == nil && want.Format(mysqlTimeLayout) == s {
				t.Fatalf("%q is in the layout but was declined", s)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q decoded to %v; time.Parse: %v", s, got, err)
		}
		if !got.Equal(want) || got.Location() != want.Location() {
			t.Fatalf("%q decoded to %v, time.Parse gives %v", s, got, want)
		}
	})
}
