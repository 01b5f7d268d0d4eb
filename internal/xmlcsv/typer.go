package xmlcsv

import (
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// text is a cell as its source had it: an entry's string, or bytes of a line
// a parser still owns.
type text interface{ ~string | ~[]byte }

// typeText is the converter's one typing rule: a cell's type is the
// narrowest of int, float, time and string that reads its text — the first
// of strconv.ParseInt(value, 10, 64), strconv.ParseFloat(value, 64) and
// time.Parse(mxml.TimeLayout, value) to succeed, else string — and a field
// hinted "time" is a time or a string. The empty cell has no type. The
// value comes back read under its type, so nothing downstream parses the
// text again.
//
// It decides by scanning the bytes: the int arm is read by hand, and
// strconv or time is called at most once and only on text shaped like what
// it accepts, so a cell that was never a number costs no error value.
func typeText(value, hint string) mscopedb.Value {
	v := typeCell(value, hint)
	v.Str = value
	return v
}

// TypeBytes is typeText over bytes the caller keeps: the value's Str stays
// unset, and nothing is allocated unless the text is float- or time-shaped
// and longer than 32 bytes.
func TypeBytes(value []byte, hint string) mscopedb.Value { return typeCell(value, hint) }

func typeCell[T text](value T, hint string) (v mscopedb.Value) {
	if len(value) == 0 {
		return v
	}
	v.Type = mscopedb.TString
	switch {
	case hint == "time":
		typeTime(&v, value)
	case typeInt(&v, value):
	case floatShaped(value):
		if f, err := strconv.ParseFloat(string(value), 64); err == nil {
			v.Type, v.Float = mscopedb.TFloat, f
		}
	default:
		// Nothing float-shaped is time-shaped: the arms are exclusive.
		typeTime(&v, value)
	}
	return v
}

// typeInt reads [+-]?[0-9]+ within int64, as strconv.ParseInt in base 10
// does. An overflowing digit string is float-shaped and falls through.
func typeInt[T text](v *mscopedb.Value, s T) bool {
	neg := s[0] == '-'
	if neg || s[0] == '+' {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || n > (limit-d)/10 {
			return false
		}
		n = n*10 + d
	}
	v.Type, v.Int, v.Float = mscopedb.TInt, int64(n), float64(n)
	if neg {
		// -n wraps to itself at MinInt64; -0.0 is what ParseFloat reads "-0" as.
		v.Int, v.Float = -int64(n), -float64(n)
	}
	return true
}

// floatShaped reports whether strconv.ParseFloat may accept s: a decimal
// [+-]?(digits[.digits]|.digits)([eE][+-]?digits)?, which it reads unless
// out of range, or one of the shapes left to it to judge — infinities, NaN,
// and anything with a hex prefix or an underscore.
func floatShaped[T text](s T) bool {
	signed := s[0] == '+' || s[0] == '-'
	if signed {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	switch c := s[0] | 0x20; {
	// The lengths first: copying bytes into a string to compare them
	// allocates past 32 bytes (an SQL statement that starts with "I").
	case c == 'i':
		return (len(s) == 3 || len(s) == 8) && (strings.EqualFold(string(s), "inf") || strings.EqualFold(string(s), "infinity"))
	case c == 'n':
		return !signed && len(s) == 3 && strings.EqualFold(string(s), "nan")
	case len(s) > 1 && s[0] == '0' && s[1]|0x20 == 'x':
		return true
	}
	i, digits := 0, 0
	for ; i < len(s) && isDigit(s[i]); i++ {
		digits++
	}
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s) && isDigit(s[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) {
			return false
		}
		for ; i < len(s) && isDigit(s[i]); i++ {
		}
	}
	for j := i; j < len(s); j++ { // what came before i was digits, a point, an exponent
		if s[j] == '_' {
			return true
		}
	}
	return i == len(s)
}

func isDigit(c byte) bool { return c-'0' <= 9 }

// typeTime reads a timestamp in mxml.TimeLayout. Every value the layout
// accepts opens "2006-01-02T" and is no shorter than "2006-01-02T5:04:05Z"
// (time.Parse takes a one-digit hour); only text punctuated that way
// reaches time.Parse.
func typeTime[T text](v *mscopedb.Value, s T) {
	if len(s) < len("2006-01-02T5:04:05Z") || s[4] != '-' || s[7] != '-' || s[10] != 'T' {
		return
	}
	if ts, err := time.Parse(mxml.TimeLayout, string(s)); err == nil {
		v.Type, v.Int = mscopedb.TTime, ts.UnixMicro()
	}
}

// Widen returns the column type needed to also store a cell of type v: int
// widens to float, and anything else mixed degrades to string. The zero
// type stands for "nothing seen yet" on both sides — the empty cell, or a
// column that has held only empty cells — so a column settles on the type
// of its first non-empty cell and an empty cell never moves it.
func Widen(cur, v mscopedb.Type) mscopedb.Type {
	switch {
	case cur == 0:
		return v
	case v == 0 || cur == v:
		return cur
	case cur == mscopedb.TInt && v == mscopedb.TFloat, cur == mscopedb.TFloat && v == mscopedb.TInt:
		return mscopedb.TFloat
	}
	return mscopedb.TString
}
