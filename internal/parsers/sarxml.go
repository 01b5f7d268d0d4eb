package parsers

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// sarXMLParser consumes `sadf -x`-style sysstat XML, the paper's upgraded
// SAR path that "obviated the custom approach": the XML already carries
// dates and field names, so this adapter only flattens the element tree
// into records.
var sarXMLParser = format{"sar-xml", parseSARXML}

func parseSARXML(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	x := xmlScanner{in: in, buf: make([]byte, 0, 64<<10), names: make(map[string]string),
		attrs: make([]xmlAttr, 0, 16), open: make([]byte, 0, 64), marks: make([]int, 0, 8)}
	var r Record
	open := false // inside a timestamp element
	for {
		kind, err := x.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("parsers: sar-xml: %w", err)
		}
		name := x.name
		switch {
		case kind == xmlEnd:
			if open && string(name) == "timestamp" {
				if err := c.apply(&r); err != nil {
					return fmt.Errorf("parsers: sar-xml: %w", err)
				}
				if err := sink(&r); err != nil {
					return err
				}
				open = false
			}
		case string(name) == "timestamp":
			if open {
				return fmt.Errorf("parsers: sar-xml: nested timestamp element")
			}
			var date, clock []byte
			for _, a := range x.attrs {
				switch string(a.name) {
				case "date":
					date = a.val
				case "time":
					clock = a.val
				}
			}
			if len(date) == 0 || len(clock) == 0 {
				return fmt.Errorf("parsers: sar-xml timestamp without date/time")
			}
			var stamp [32]byte
			ts, err := time.Parse("2006-01-02 15:04:05.000", string(dateClock(stamp[:0], date, clock)))
			if err != nil {
				return fmt.Errorf("parsers: sar-xml timestamp %q %q: %w", date, clock, err)
			}
			r.reset()
			r.addTime("ts", ts.UTC())
			open = true
		case string(name) == "cpu", string(name) == "queue":
			if !open {
				return fmt.Errorf("parsers: sar-xml: %s element outside timestamp", name)
			}
			for _, a := range x.attrs {
				switch {
				case name[0] == 'q':
					if string(a.name) == "runq-sz" {
						r.add("runq", r.hold(a.val))
					}
				case string(a.name) == "number":
					r.add("cpu", r.hold(a.val))
				default:
					r.add(x.intern(a.name), r.hold(a.val))
				}
			}
		}
	}
}

// xmlScanner reads the subset of XML `sadf -x` writes, from a window over
// the input: elements with quoted attributes, the predefined and numeric
// character references; text, comments, processing instructions and a
// doctype without an internal subset are checked and skipped. Whatever it
// accepts, encoding/xml reads the same way (FuzzSarXMLMatchesEncodingXML);
// anything else — CDATA, a non-ASCII or doubly prefixed name, another
// encoding — is an error naming the input offset.
type xmlScanner struct {
	in   io.Reader
	buf  []byte // buf[pos:] is the window: read, not yet scanned
	pos  int
	base int64 // input offset of buf[0]
	eof  bool

	// name is the last tag's name and attrs a start tag's attributes, both
	// without their prefixes; they are valid until the next call of next.
	name  []byte
	attrs []xmlAttr
	text  []byte // decoded attribute values of the tag in hand
	// close: the tag in hand was self-closing and its end is due.
	close bool
	// open holds the full names of the open elements, end to end, and
	// marks where each starts.
	open  []byte
	marks []int
	names map[string]string // attribute names become cell names
}

type xmlAttr struct{ name, val []byte }

type xmlKind int

const (
	xmlSkip xmlKind = iota
	xmlStart
	xmlEnd
)

// maxXMLToken bounds one tag, comment or text run, as the line scanner
// bounds a line.
const maxXMLToken = 1 << 20

var errXMLShort = errors.New("token runs past the window")

// next returns the next start or end tag; io.EOF once the input has ended
// with every element closed.
func (x *xmlScanner) next() (xmlKind, error) {
	if x.close {
		x.close = false
		return xmlEnd, nil
	}
	for {
		kind, n, err := x.scan(x.buf[x.pos:])
		switch {
		case err == nil:
			if x.pos += n; kind != xmlSkip {
				return kind, nil
			}
		case err != errXMLShort:
			return 0, err
		case !x.eof:
			if err := x.fill(); err != nil {
				return 0, err
			}
		case x.pos == len(x.buf) && len(x.marks) == 0:
			return 0, io.EOF
		default:
			return 0, x.fail(len(x.buf)-x.pos, "unexpected EOF")
		}
	}
}

// fill slides the window to the front of the buffer and reads more.
func (x *xmlScanner) fill() error {
	x.base += int64(x.pos)
	x.buf = x.buf[:copy(x.buf, x.buf[x.pos:])]
	x.pos = 0
	if len(x.buf) == cap(x.buf) {
		if len(x.buf) >= maxXMLToken {
			return x.fail(0, "token too long")
		}
		x.buf = append(make([]byte, 0, 2*cap(x.buf)), x.buf...)
	}
	n, err := io.ReadAtLeast(x.in, x.buf[len(x.buf):cap(x.buf)], 1)
	x.buf = x.buf[:len(x.buf)+n]
	if err == io.EOF {
		x.eof, err = true, nil
	}
	return err
}

func (x *xmlScanner) fail(at int, format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", x.base+int64(x.pos+at), fmt.Sprintf(format, args...))
}

func (x *xmlScanner) intern(name []byte) string {
	if s, ok := x.names[string(name)]; ok {
		return s
	}
	s := string(name)
	if len(x.names) < 256 {
		x.names[s] = s
	}
	return s
}

// scan reads the token that opens the window w and returns how many bytes
// it took; errXMLShort when the window ends inside it.
func (x *xmlScanner) scan(w []byte) (xmlKind, int, error) {
	switch {
	case len(w) == 0:
		return 0, 0, errXMLShort
	case w[0] != '<':
		n := bytes.IndexByte(w, '<')
		if n < 0 {
			if !x.eof {
				return 0, 0, errXMLShort
			}
			n = len(w)
		}
		if i := bytes.Index(w[:n], []byte("]]>")); i >= 0 {
			return 0, 0, x.fail(i, "unescaped ]]> in text")
		}
		var err error
		if !plainXML(w[:n]) {
			x.text, err = x.decode(x.text[:0], w[:n], 0)
		}
		return xmlSkip, n, err
	case len(w) < 2:
		return 0, 0, errXMLShort
	}
	switch w[1] {
	case '/':
		name, p, err := x.tagName(w, 2)
		if err != nil {
			return 0, 0, err
		}
		if p = skipXMLSpace(w, p); p == len(w) {
			return 0, 0, errXMLShort
		}
		top := len(x.marks) - 1
		if w[p] != '>' || top < 0 || !bytes.Equal(x.open[x.marks[top]:], name) {
			return 0, 0, x.fail(0, "end tag %q is malformed or closes no open element", w[:p+1])
		}
		x.open, x.marks = x.open[:x.marks[top]], x.marks[:top]
		x.name = localXMLName(name)
		return xmlEnd, p + 1, nil
	case '?':
		target, p, err := x.tagName(w, 2)
		if err != nil {
			return 0, 0, err
		}
		n := bytes.Index(w[p:], []byte("?>"))
		if n < 0 {
			return 0, 0, errXMLShort
		}
		if string(target) == "xml" && !utf8Declaration(w[p:p+n]) {
			return 0, 0, x.fail(p, "XML declaration %q is not version 1.0 in UTF-8", w[p:p+n])
		}
		return xmlSkip, p + n + 2, nil
	case '!':
		return x.scanBang(w)
	}

	name, p, err := x.tagName(w, 1)
	if err != nil {
		return 0, 0, err
	}
	x.attrs, x.text = x.attrs[:0], x.text[:0]
	for {
		if p = skipXMLSpace(w, p); p == len(w) {
			return 0, 0, errXMLShort
		}
		if w[p] == '>' || w[p] == '/' {
			break
		}
		attr, q, err := x.tagName(w, p)
		if err != nil {
			return 0, 0, err
		}
		if q = skipXMLSpace(w, q); q == len(w) {
			return 0, 0, errXMLShort
		}
		if w[q] != '=' {
			return 0, 0, x.fail(q, "attribute %s without a value", attr)
		}
		if q = skipXMLSpace(w, q+1); q == len(w) {
			return 0, 0, errXMLShort
		}
		if w[q] != '"' && w[q] != '\'' {
			return 0, 0, x.fail(q, "attribute %s: value is not quoted", attr)
		}
		n := bytes.IndexByte(w[q+1:], w[q])
		if n < 0 {
			return 0, 0, errXMLShort
		}
		val := w[q+1 : q+1+n]
		if i := bytes.IndexByte(val, '<'); i >= 0 {
			return 0, 0, x.fail(q+1+i, "unescaped < in an attribute value")
		}
		if !plainXML(val) {
			at := len(x.text)
			if x.text, err = x.decode(x.text, val, q+1); err != nil {
				return 0, 0, err
			}
			val = x.text[at:]
		}
		x.attrs = append(x.attrs, xmlAttr{localXMLName(attr), val})
		p = q + 1 + n + 1
	}
	x.close = w[p] == '/'
	if x.close {
		if p++; p == len(w) {
			return 0, 0, errXMLShort
		}
		if w[p] != '>' {
			return 0, 0, x.fail(p, "expected /> in element")
		}
	} else {
		x.marks = append(x.marks, len(x.open))
		x.open = append(x.open, name...)
	}
	x.name = localXMLName(name)
	return xmlStart, p + 1, nil
}

// scanBang skips a comment or a directive; w opens with "<!".
func (x *xmlScanner) scanBang(w []byte) (xmlKind, int, error) {
	switch {
	case len(w) < 4:
		return 0, 0, errXMLShort
	case w[2] == '[':
		return 0, 0, x.fail(0, "CDATA sections are not supported")
	case w[2] == '-':
		if w[3] != '-' {
			return 0, 0, x.fail(0, "invalid sequence <!- not part of <!--")
		}
		n := bytes.Index(w[4:], []byte("--"))
		if n < 0 || 4+n+2 == len(w) {
			return 0, 0, errXMLShort
		}
		if w[4+n+2] != '>' {
			return 0, 0, x.fail(4+n, `"--" inside a comment`)
		}
		return xmlSkip, 4 + n + 3, nil
	}
	// A directive: <!DOCTYPE ...>. Its first byte is taken as it comes, and
	// a > inside quotes does not end it.
	quote := byte(0)
	for p := 3; p < len(w); p++ {
		switch b := w[p]; {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '"' || b == '\'':
			quote = b
		case b == '<':
			return 0, 0, x.fail(p, "markup inside a directive is not supported")
		case b == '>':
			return xmlSkip, p + 1, nil
		}
	}
	return 0, 0, errXMLShort
}

// tagName reads the name at w[p:] and returns where it ends: ASCII name
// characters, not opening with a digit, dot or dash, and at most one colon,
// with something on both sides of it.
func (x *xmlScanner) tagName(w []byte, p int) ([]byte, int, error) {
	q := p
scan:
	for ; q < len(w); q++ {
		switch c := w[q]; {
		case c|0x20 >= 'a' && c|0x20 <= 'z', c == '_', c == ':':
		case c >= '0' && c <= '9', c == '.', c == '-':
			if q == p {
				return nil, 0, x.fail(q, "name opens with %q", c)
			}
		case c >= utf8.RuneSelf:
			return nil, 0, x.fail(q, "name is not ASCII")
		default:
			break scan
		}
	}
	if q == len(w) {
		return nil, 0, errXMLShort
	}
	name := w[p:q]
	if i := bytes.IndexByte(name, ':'); len(name) == 0 || i == 0 || i == len(name)-1 || i != bytes.LastIndexByte(name, ':') {
		return nil, 0, x.fail(p, "expected a name with at most one prefix, found %q", name)
	}
	return name, q, nil
}

// localXMLName is a name without its prefix.
func localXMLName(name []byte) []byte { return name[bytes.IndexByte(name, ':')+1:] }

func skipXMLSpace(w []byte, p int) int {
	for p < len(w) && (w[p] == ' ' || w[p] == '\r' || w[p] == '\n' || w[p] == '\t') {
		p++
	}
	return p
}

// plainXML reports whether text stands for itself: legal ASCII with no
// reference to resolve and no carriage return to fold.
func plainXML(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf || c == '&' || c < 0x20 && c != '\t' && c != '\n' {
			return false
		}
	}
	return true
}

// xmlCharOK is the Char production of XML 1.0.
func xmlCharOK(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// decode appends the text raw stands for — references resolved, a carriage
// return or CR LF folded to a newline — and rejects what XML forbids in
// text: a malformed or unknown reference, invalid UTF-8, a character outside
// Char. at locates raw in the window, for the error.
func (x *xmlScanner) decode(dst, raw []byte, at int) ([]byte, error) {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&':
			n := bytes.IndexByte(raw[i:], ';')
			r, ok := xmlReference(raw[i+1 : i+max(n, 1)])
			if n < 0 || !ok {
				return dst, x.fail(at+i, "invalid character reference")
			}
			dst = utf8.AppendRune(dst, r)
			i += n + 1
		case c == '\r':
			dst = append(dst, '\n')
			if i++; i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 || !xmlCharOK(r) {
				return dst, x.fail(at+i, "illegal character %#x", c)
			}
			dst = append(dst, raw[i:i+size]...)
			i += size
		}
	}
	return dst, nil
}

var xmlEntities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// xmlReference resolves what stands between & and ; — one of the five
// predefined names, #decimal or #xhex — to a legal character; a surrogate
// code point reads as U+FFFD, as string(rune) makes it.
func xmlReference(ref []byte) (rune, bool) {
	if r, ok := xmlEntities[string(ref)]; ok || len(ref) < 2 || ref[0] != '#' {
		return r, ok
	}
	digits, base := ref[1:], 10
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	for _, c := range digits { // ParseUint would take a sign or an underscore
		if !(c >= '0' && c <= '9' || base == 16 && (c|0x20 >= 'a' && c|0x20 <= 'f')) {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(string(digits), base, 32)
	r := rune(n)
	if r >= 0xD800 && r <= 0xDFFF {
		r = utf8.RuneError
	}
	return r, err == nil && n <= utf8.MaxRune && xmlCharOK(r)
}

// utf8Declaration reports whether the body of an <?xml ...?> declaration
// says nothing but version 1.0, UTF-8 and whether it stands alone.
func utf8Declaration(body []byte) bool {
	for _, f := range strings.Fields(string(body)) {
		switch strings.ReplaceAll(strings.ToLower(f), "'", `"`) {
		case `version="1.0"`, `encoding="utf-8"`, `standalone="yes"`, `standalone="no"`:
		default:
			return false
		}
	}
	return true
}
