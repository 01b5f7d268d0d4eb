package mxml

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	meta := Meta{Source: "apache-event", Host: "apache", Table: "apache_event"}
	if err := w.Open(meta); err != nil {
		t.Fatal(err)
	}
	var e1 Entry
	e1.Add("reqid", "req-0000000123")
	e1.Fields = append(e1.Fields, Field{Name: "ts", Value: "2017-04-01T00:00:12.345678Z", Hint: "time"})
	e1.Add("uri", "/rubbos/ViewStory?a=1&b=2")
	if err := w.WriteEntry(e1); err != nil {
		t.Fatal(err)
	}
	var e2 Entry
	e2.Add("reqid", "req-0000000124")
	e2.Add("sql", `SELECT "x" < 3 /*ID=req*/`)
	if err := w.WriteEntry(e2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Entries() != 2 {
		t.Fatalf("entries %d", w.Entries())
	}

	var got []Entry
	m, err := ReadDoc(&buf, func(e Entry) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if m != meta {
		t.Fatalf("meta %+v != %+v", m, meta)
	}
	if len(got) != 2 {
		t.Fatalf("%d entries", len(got))
	}
	if v, _ := got[0].Get("uri"); v != "/rubbos/ViewStory?a=1&b=2" {
		t.Fatalf("uri = %q", v)
	}
	if got[0].Fields[1].Hint != "time" {
		t.Fatalf("time hint lost: %+v", got[0].Fields[1])
	}
	if v, _ := got[1].Get("sql"); v != `SELECT "x" < 3 /*ID=req*/` {
		t.Fatalf("sql escaping broken: %q", v)
	}
}

func TestGetMissing(t *testing.T) {
	var e Entry
	e.Add("a", "1")
	if _, ok := e.Get("b"); ok {
		t.Fatal("missing field reported present")
	}
}

func TestWriterStateErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEntry(Entry{}); err == nil {
		t.Fatal("WriteEntry before Open accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close before Open accepted")
	}
	if err := w.Open(Meta{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Open(Meta{Table: "t"}); err == nil {
		t.Fatal("double Open accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEntry(Entry{}); err == nil {
		t.Fatal("WriteEntry after Close accepted")
	}
}

func TestOpenRequiresTable(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Open(Meta{Source: "x"}); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestReadDocErrors(t *testing.T) {
	if _, err := ReadDoc(strings.NewReader("<nope/>"), func(Entry) error { return nil }); err == nil {
		t.Fatal("document without log element accepted")
	}
	bad := `<log table="t"><entry><f n="a"><nested/></f></entry></log>`
	if _, err := ReadDoc(strings.NewReader(bad), func(Entry) error { return nil }); err == nil {
		t.Fatal("nested element in field accepted")
	}
	noName := `<log table="t"><entry><f>v</f></entry></log>`
	if _, err := ReadDoc(strings.NewReader(noName), func(Entry) error { return nil }); err == nil {
		t.Fatal("field without name accepted")
	}
}

// Property: any field name/value strings survive a write/read cycle.
func TestRoundTripProperty(t *testing.T) {
	f := func(names, values []string) bool {
		if len(names) == 0 {
			return true
		}
		var e Entry
		for i, n := range names {
			if n == "" || strings.ContainsAny(n, "\"<>&\x00") || !validXML(n) {
				continue
			}
			v := ""
			if i < len(values) {
				v = values[i]
			}
			if !validXML(v) {
				continue
			}
			e.Add(n, v)
		}
		if len(e.Fields) == 0 {
			return true
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Open(Meta{Table: "t"}); err != nil {
			return false
		}
		if err := w.WriteEntry(e); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		var got []Entry
		if _, err := ReadDoc(&buf, func(e Entry) error { got = append(got, e); return nil }); err != nil {
			return false
		}
		if len(got) != 1 || len(got[0].Fields) != len(e.Fields) {
			return false
		}
		for i := range e.Fields {
			if got[0].Fields[i].Name != e.Fields[i].Name ||
				got[0].Fields[i].Value != e.Fields[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// validXML filters characters XML 1.0 cannot carry (control chars), plus
// carriage returns, which the XML parser normalizes to newlines.
func validXML(s string) bool {
	for _, r := range s {
		if r == '\r' || (r < 0x20 && r != '\t' && r != '\n') || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

func BenchmarkWriteEntry(b *testing.B) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Open(Meta{Table: "t"}); err != nil {
		b.Fatal(err)
	}
	var e Entry
	e.Add("reqid", "req-0000000123")
	e.Fields = append(e.Fields, Field{Name: "ts", Value: "2017-04-01T00:00:12.345678Z", Hint: "time"})
	e.Add("ua", "1491004812345678")
	e.Add("ud", "1491004812347801")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteEntry(e); err != nil {
			b.Fatal(err)
		}
	}
}
