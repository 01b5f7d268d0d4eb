package parsers

import (
	"bytes"
	"time"
)

// fields.go holds the allocation-free replacements for strings.Fields and
// strings.Split used by the customized parsers' per-line loops: the caller
// keeps one buffer per file (lineFields) and the splitters refill it in
// place. The fields are slices of the line, valid as long as it is.

// lineFields is a buffer with room for more fields than any built-in
// format's line has, so a parse allocates it once.
func lineFields() [][]byte { return make([][]byte, 0, 32) }

// isASCIISpace mirrors the ASCII portion of unicode.IsSpace, which is what
// strings.Fields tests for pure-ASCII input.
func isASCIISpace(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// fieldsInto splits s around runs of whitespace into buf, exactly like
// strings.Fields. Inputs containing non-ASCII bytes fall back to
// bytes.Fields so Unicode spaces (U+00A0, U+2028, ...) keep their
// rune-wise treatment.
func fieldsInto(s []byte, buf [][]byte) [][]byte {
	for _, b := range s {
		if b >= 0x80 {
			return bytes.Fields(s)
		}
	}
	buf = buf[:0]
	i := 0
	for i < len(s) {
		for i < len(s) && isASCIISpace(s[i]) {
			i++
		}
		if i == len(s) {
			break
		}
		start := i
		for i < len(s) && !isASCIISpace(s[i]) {
			i++
		}
		buf = append(buf, s[start:i])
	}
	return buf
}

// splitInto splits s at every occurrence of sep into buf, exactly like
// strings.Split(s, string(sep)) — byte separators need no Unicode
// fallback.
func splitInto(s []byte, sep byte, buf [][]byte) [][]byte {
	buf = buf[:0]
	for {
		j := bytes.IndexByte(s, sep)
		if j < 0 {
			return append(buf, s)
		}
		buf = append(buf, s[:j])
		s = s[j+1:]
	}
}

// hasPrefix is strings.HasPrefix over a line's bytes.
func hasPrefix(line []byte, prefix string) bool {
	return len(line) >= len(prefix) && string(line[:len(prefix)]) == prefix
}

// dateClock is a sample's date and clock as one text for time.Parse, built in
// buf: the caller's stack, when they are as short as a stamp is.
func dateClock(buf, date, clock []byte) []byte {
	return append(append(append(buf, date...), ' '), clock...)
}

// clockOn stitches a row's "15:04:05.000" time of day onto the date its
// file's banner or declaration gave, as sar, pidstat and collectl need.
func clockOn(date time.Time, clock []byte) (time.Time, error) {
	c, err := time.Parse("15:04:05.000", string(clock))
	if err != nil {
		return c, err
	}
	return time.Date(date.Year(), date.Month(), date.Day(),
		c.Hour(), c.Minute(), c.Second(), c.Nanosecond(), time.UTC), nil
}
