package parsers

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/resources"
)

// sarXMLOracle is the encoding/xml walk sarXMLParser was before it read the
// bytes itself, kept as the scanner's reference as regexp is the
// tokenizer's: the same elements and attributes become the same fields.
func sarXMLOracle(in io.Reader, emit Emit) error {
	dec := xml.NewDecoder(bufio.NewReaderSize(in, 1<<16))
	var cur *mxml.Entry
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("parsers: sar-xml token: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "timestamp":
				if cur != nil {
					return fmt.Errorf("parsers: sar-xml: nested timestamp element")
				}
				var date, clock string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "date":
						date = a.Value
					case "time":
						clock = a.Value
					}
				}
				if date == "" || clock == "" {
					return fmt.Errorf("parsers: sar-xml timestamp without date/time")
				}
				ts, err := time.Parse("2006-01-02 15:04:05.000", date+" "+clock)
				if err != nil {
					return fmt.Errorf("parsers: sar-xml timestamp %q %q: %w", date, clock, err)
				}
				cur = &mxml.Entry{}
				cur.Fields = append(cur.Fields, mxml.Field{Name: "ts", Value: ts.UTC().Format(mxml.TimeLayout), Hint: "time"})
			case "cpu":
				if cur == nil {
					return fmt.Errorf("parsers: sar-xml: cpu element outside timestamp")
				}
				for _, a := range t.Attr {
					if a.Name.Local == "number" {
						cur.Add("cpu", a.Value)
						continue
					}
					cur.Add(a.Name.Local, a.Value)
				}
			case "queue":
				if cur == nil {
					return fmt.Errorf("parsers: sar-xml: queue element outside timestamp")
				}
				for _, a := range t.Attr {
					if a.Name.Local == "runq-sz" {
						cur.Add("runq", a.Value)
					}
				}
			}
		case xml.EndElement:
			if t.Name.Local == "timestamp" && cur != nil {
				if err := emit(*cur); err != nil {
					return err
				}
				cur = nil
			}
		}
	}
}

// sarXMLAgainstOracle holds the byte scanner to the encoding/xml walk:
// wherever the oracle fails the scanner fails, and when the scanner reads
// the document to its end it has emitted the oracle's records; a scanner
// that gives up first has emitted a prefix of them. The scanner reads
// through rd, so a one-byte reader drives every token across a refill.
func sarXMLAgainstOracle(t *testing.T, input string, rd func(io.Reader) io.Reader) {
	t.Helper()
	dump := func(parse func(Emit) error) (string, error) {
		var sb strings.Builder
		err := parse(func(e mxml.Entry) error { dumpEntry(&sb, e); return nil })
		return sb.String(), err
	}
	want, wantErr := dump(func(emit Emit) error { return sarXMLOracle(strings.NewReader(input), emit) })
	got, gotErr := dump(func(emit Emit) error {
		return sarXMLParser.Parse(rd(strings.NewReader(input)), Instructions{}, emit)
	})
	switch {
	case gotErr == nil && (wantErr != nil || got != want):
		t.Fatalf("input %q:\nscanner read\n%sencoding/xml (err %v) read\n%s", input, got, wantErr, want)
	case gotErr != nil && !strings.HasPrefix(want, got):
		t.Fatalf("input %q: scanner failed (%v) after\n%snot a prefix of encoding/xml's\n%s", input, gotErr, got, want)
	}
}

// sarXMLSeeds are documents around every rule of the scanner.
func sarXMLSeeds() []string {
	base := time.Date(2017, 4, 1, 0, 0, 12, 345000000, time.UTC)
	doc := logfmt.SARXMLOpen("tomcat", 8, base) +
		logfmt.SARXMLTimestamp(base, resources.Interval{UserPct: 12.34, IdlePct: 83.4, RunQueue: 5}) +
		logfmt.SARXMLClose()
	ts := func(body string) string {
		return `<s><timestamp date="2017-04-01" time="00:00:12.345">` + body + `</timestamp></s>`
	}
	return []string{
		doc,
		strings.Replace(doc, "<sysstat>", "<!DOCTYPE sysstat PUBLIC \"DTD v2.19 sysstat //EN\" 'http://x/y>.dtd'>\n<!-- a - comment -->\n<sysstat xmlns=\"http://x\" xmlns:xsi='y'>", 1),
		strings.Replace(doc, "</timestamp>", "</timestamp><restart date=\"2017-04-01\" time=\"00:00:13\"/>", 1),
		doc[:len(doc)-12], doc[:200], "", " \n", "plain text", "<a/>", "<a></b>", "</a>", "<a><b></a></b>",
		ts(`<cpu number="all" user="1 &amp; 2 &lt;&gt;&apos;&quot; &#65;&#x42;&#xd800;" x:idle='a"b' xmlns:x="u"/>`),
		ts(`<cpu a="cr&#13;lf` + "\r\n" + `bare` + "\r" + `end" b="caf` + "\xc3\xa9" + `" c=""/><queue runq-sz="7" plist-sz="9"/>`),
		ts(`<y:cpu number="0" number="1"/><x:queue x:runq-sz="3"></x:queue>`),
		ts(`<cpu a="&#0;"/>`), ts(`<cpu a="&#xFFFE;"/>`), ts(`<cpu a="&#1114112;"/>`), ts(`<cpu a="&bogus;"/>`),
		ts(`<cpu a="&amp"/>`), ts(`<cpu a="&#x;"/>`), ts(`<cpu a="&#;"/>`), ts(`<cpu a="a<b"/>`), ts(`<cpu a="\xff"/>`),
		ts(`<cpu a="` + "\x01" + `"/>`), ts(`<cpu a=b/>`), ts(`<cpu a/>`), ts(`<cpu a ="1" b= '2'` + "\n" + `/>`), ts(`<cpu/ >`),
		ts(`<timestamp date="d" time="t"/>`), ts(`text ]]> text`), ts(`a &amp; b &#x1F600; ` + "\xe2\x82\xac"), ts(`bad &ref; text`),
		ts(`<![CDATA[x]]>`), ts(`<!-- a -- b -->`), ts(`<!--->`), ts(`<?pi some ?content?>`), ts(`<? pi?>`),
		ts(`<1a/>`), ts(`<a:b:c/>`), ts(`<:a/>`), ts(`<a:/>`), ts(`<caf` + "\xc3\xa9" + `/>`), ts(`<-a/>`), ts(`<a.b-c_d/>`),
		`<queue runq-sz="1"/>`, `<cpu number="all"/>`, `<timestamp date="2017-04-01"/>`, `<timestamp date="x" time="y"/>`,
		`<?xml version="1.0" encoding="utf-8" standalone='yes'?><a/>`, `<?xml version="1.1"?><a/>`,
		`<?xml version="1.0" encoding="latin1"?><a/>`, `<?xml standalone="version='2.0'"?><a/>`, `<?xml?><a/>`, `<?XML version="9"?><a/>`,
		`<!DOCTYPE a [ <!ENTITY e "v"> ]><a/>`, `<!DOCTYPE a "x>y" 'p>q'><a/>`, `<!>x><a/>`, `<!"a><a/>`, "\xef\xbb\xbf<a/>",
		`<a/><b/>trailing`, `<a>` + strings.Repeat(" ", 70<<10) + `</a>`, `<a b="` + strings.Repeat("v", 70<<10) + `"/>`,
	}
}

// TestSarXMLMatchesEncodingXML runs the fuzz seeds through every reader
// shape: whole, one byte at a time, and data arriving with the EOF.
func TestSarXMLMatchesEncodingXML(t *testing.T) {
	for _, doc := range sarXMLSeeds() {
		sarXMLAgainstOracle(t, doc, func(r io.Reader) io.Reader { return r })
		sarXMLAgainstOracle(t, doc, iotest.DataErrReader)
		if len(doc) < 4096 {
			sarXMLAgainstOracle(t, doc, iotest.OneByteReader)
		}
	}
}

// TestSarXMLTokenTooLong: a tag that outgrows the window's bound is an
// error, not an allocation sized by the input.
func TestSarXMLTokenTooLong(t *testing.T) {
	doc := `<a b="` + strings.Repeat("v", 2*maxXMLToken) + `"/>`
	err := sarXMLParser.Parse(strings.NewReader(doc), Instructions{}, func(mxml.Entry) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("oversized tag: %v", err)
	}
}

// FuzzSarXMLMatchesEncodingXML: on arbitrary bytes the scanner gives the
// oracle's records or an error — never a different answer.
func FuzzSarXMLMatchesEncodingXML(f *testing.F) {
	for _, doc := range sarXMLSeeds() {
		if len(doc) < 4096 {
			f.Add(doc, false)
		}
	}
	f.Fuzz(func(t *testing.T, doc string, oneByte bool) {
		rd := func(r io.Reader) io.Reader { return r }
		if oneByte {
			rd = iotest.OneByteReader
		}
		sarXMLAgainstOracle(t, doc, rd)
	})
}
