package xmlcsv

import (
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// referenceCell is the typing rule as the converter first spelled it: try
// each reader in turn and keep the first that succeeds. TypeCell must agree
// with it on every input.
func referenceCell(value, hint string) mscopedb.Value {
	v := mscopedb.Value{Str: value}
	if value == "" {
		return v
	}
	v.Type = mscopedb.TString
	if hint != "time" {
		if n, err := strconv.ParseInt(value, 10, 64); err == nil {
			v.Type, v.Int = mscopedb.TInt, n
			v.Float, _ = strconv.ParseFloat(value, 64)
			return v
		}
		if f, err := strconv.ParseFloat(value, 64); err == nil {
			v.Type, v.Float = mscopedb.TFloat, f
			return v
		}
	}
	if ts, err := time.Parse(mxml.TimeLayout, value); err == nil {
		v.Type, v.Int = mscopedb.TTime, ts.UnixMicro()
	}
	return v
}

// FuzzCellTyperEquivalence: for arbitrary bytes and both hints, TypeCell's
// type and value equal the reference cascade's, floats bit for bit.
func FuzzCellTyperEquivalence(f *testing.F) {
	for _, s := range []string{
		"", "0", "42", "-17", "3.5", "hello", "GET", "/rubbos/ViewStory?id=7", "sda", "200 OK", "10.0.0.1",
		// What a hand scanner gets wrong.
		"-", "+", ".", "+1", "-0", "+0", "-0.0", "1_0", "1_0.5", "_1", "1_", "0x10", "0x1p-2", "0X_1P2", "1e5", "1E+5",
		"1e", "1e+", "1e_5", "1.", ".5", "-.5e-3", " 1", "1 ", "inf", "-Inf", "+INF", "NaN", "+nan", "Infinity",
		"infinit", "nano", "index.html", "1e999", "-1e999", "4.9e-324", "1e-400",
		"007", "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551616", "9007199254740993", "00000000000000000000001",
		// Times: a leap second, every zone form, 1 to 9 fractional digits,
		// and the leniencies of time.Parse.
		"2016-12-31T23:59:60Z", "2017-04-01T00:00:12Z", "2017-04-01T00:00:12+00:00", "2017-04-01T00:00:12-07:00",
		"2017-04-01T00:00:12.1Z", "2017-04-01T00:00:12.12Z", "2017-04-01T00:00:12.123Z", "2017-04-01T00:00:12.1234Z",
		"2017-04-01T00:00:12.12345Z", "2017-04-01T00:00:12.123456Z", "2017-04-01T00:00:12.1234567Z",
		"2017-04-01T00:00:12.12345678Z", "2017-04-01T00:00:12.123456789Z", "2017-04-01T00:00:12.1234567891Z",
		"2017-04-01T5:04:05Z", "2017-04-01T15:04:05,5Z", "2017-04-01T24:00:00Z", "2017-02-30T00:00:00Z",
		"2017-04-01 00:00:12Z", "2017-04-01T00:00:12", "2017-04-01T00:00:12z", "0000-01-01T00:00:00Z",
		"9999-12-31T23:59:59.999999999+23:59",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, value string, timeHint bool) {
		hint := ""
		if timeHint {
			hint = "time"
		}
		got, want := TypeCell(value, hint), referenceCell(value, hint)
		if got.Type != want.Type || got.Str != want.Str {
			t.Fatalf("TypeCell(%q,%q) = %v %q, reference %v", value, hint, got.Type, got.Str, want.Type)
		}
		// The same rule over bytes: the same value, less the text.
		asBytes := TypeBytes([]byte(value), hint)
		if asBytes.Str = value; asBytes != got && !(math.IsNaN(got.Float) && math.IsNaN(asBytes.Float)) {
			t.Fatalf("TypeBytes(%q,%q) = %+v, TypeCell %+v", value, hint, asBytes, got)
		}
		switch got.Type {
		case mscopedb.TInt, mscopedb.TTime:
			if got.Int != want.Int {
				t.Fatalf("TypeCell(%q,%q) = %v %d, reference %d", value, hint, got.Type, got.Int, want.Int)
			}
		}
		switch got.Type {
		case mscopedb.TInt, mscopedb.TFloat:
			if math.Float64bits(got.Float) != math.Float64bits(want.Float) {
				t.Fatalf("TypeCell(%q,%q) = %v %v (%#x), reference %v (%#x)", value, hint, got.Type,
					got.Float, math.Float64bits(got.Float), want.Float, math.Float64bits(want.Float))
			}
		}
	})
}

// TestTypeCellAllocatesNothing: the point of scanning before parsing is
// that a cell that was never a number costs no error value.
func TestTypeCellAllocatesNothing(t *testing.T) {
	cells := []string{"", "42", "-", "GET", "/rubbos/ViewStory?id=7", "3.5", "10.0.0.1", "sda", "index.html",
		"2017-04-01T00:00:12.345678Z", "200 OK", "HTTP/1.1"}
	cellBytes := make([][]byte, len(cells))
	for i, c := range cells {
		cellBytes[i] = []byte(c)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, c := range cells {
			TypeCell(c, "")
			TypeCell(c, "time")
			TypeBytes(cellBytes[i], "")
			TypeBytes(cellBytes[i], "time")
		}
	}); n != 0 {
		t.Fatalf("TypeCell and TypeBytes allocated %.1f times over %d cells", n, 4*len(cells))
	}
}
