package parsers

// tokenizer.go compiles the narrow regular-expression dialect the parsing
// declarations actually use — anchored literals, byte classes with
// repeats, literal alternation, named capture groups — into a byte-walking
// matcher that extracts submatches without the per-line allocation of
// regexp.FindStringSubmatch. Patterns outside the dialect (or whose shape
// would make byte-wise matching diverge from Go's rune-wise semantics)
// simply fail to compile and the caller keeps the regexp path; the
// FuzzTokenizerEquivalence fuzzer pins both paths to identical submatches.

import (
	"bytes"
	"strings"
)

// element ops.
const (
	opLit   = iota // match a literal byte string
	opClass        // match min..max bytes of a byte class
	opAlt          // match one of several literal alternatives, first wins
	opSave         // record the current position into a capture slot
)

// element is one compiled pattern step.
type element struct {
	op   int
	lit  string    // opLit
	set  [4]uint64 // opClass: 256-bit byte membership
	min  int       // opClass: minimum repeat count
	max  int       // opClass: maximum repeat count, -1 = unbounded
	alts []string  // opAlt
	slot int       // opSave
}

func (e *element) has(b byte) bool { return e.set[b>>6]&(1<<(b&63)) != 0 }

// asciiOnly reports whether the class matches no byte >= 0x80. Byte-wise
// repeat counting equals Go's rune-wise counting only for such classes.
func (e *element) asciiOnly() bool { return e.set[2] == 0 && e.set[3] == 0 }

// tokenizer is a compiled pattern.
type tokenizer struct {
	elems    []element
	anchored bool // pattern began with ^
	endAnch  bool // pattern ended with $
	names    []string
	// lead, for an unanchored pattern whose first consuming element is a
	// literal, is that literal: no match starts anywhere else.
	lead []byte
}

// find reports whether s matches and fills slots (2 per capture group,
// start/end byte offsets) for the leftmost-first match, exactly as
// regexp.FindSubmatchIndex would.
func (t *tokenizer) find(s []byte, slots []int) bool {
	if t.anchored {
		return t.matchHere(s, 0, 0, slots)
	}
	for start := 0; start <= len(s); start++ {
		if t.lead != nil {
			i := bytes.Index(s[start:], t.lead)
			if i < 0 {
				return false
			}
			start += i
		}
		if t.matchHere(s, start, 0, slots) {
			return true
		}
	}
	return false
}

// matchHere matches elements ei.. against s[pos:] with backtracking at
// repeat and alternation choice points, longest/first preference — the
// same order a backtracking search (and thus Go's leftmost-first submatch
// semantics) would explore.
func (t *tokenizer) matchHere(s []byte, pos, ei int, slots []int) bool {
	for ei < len(t.elems) {
		el := &t.elems[ei]
		switch el.op {
		case opSave:
			slots[el.slot] = pos
			ei++
		case opLit:
			if !hasPrefix(s[pos:], el.lit) {
				return false
			}
			pos += len(el.lit)
			ei++
		case opAlt:
			for _, a := range el.alts {
				if hasPrefix(s[pos:], a) && t.matchHere(s, pos+len(a), ei+1, slots) {
					return true
				}
			}
			return false
		case opClass:
			n, limit := 0, len(s)-pos
			if el.max >= 0 && el.max < limit {
				limit = el.max
			}
			for n < limit && el.has(s[pos+n]) {
				n++
			}
			if el.min == el.max {
				// Fixed-width class: no choice point.
				if n < el.min {
					return false
				}
				pos += n
				ei++
				continue
			}
			for ; n >= el.min; n-- {
				if t.matchHere(s, pos+n, ei+1, slots) {
					return true
				}
			}
			return false
		}
	}
	if t.endAnch {
		// Go's $ (without (?m)) anchors to end of text, not end of line.
		return pos == len(s)
	}
	return true
}

// tokCompiler is the single-pass pattern parser.
type tokCompiler struct {
	pat   string
	i     int
	elems []element
	names []string
	lit   []byte // pending literal accumulation
	fail  bool
}

func (c *tokCompiler) reject() { c.fail = true }

func (c *tokCompiler) flushLit() {
	if len(c.lit) > 0 {
		c.elems = append(c.elems, element{op: opLit, lit: string(c.lit)})
		c.lit = c.lit[:0]
	}
}

// compileTokenizer returns the byte-walking matcher for pattern, or nil
// when the pattern falls outside the supported dialect.
func compileTokenizer(pattern string) *tokenizer {
	c := &tokCompiler{pat: pattern}
	tok := &tokenizer{}
	if strings.HasPrefix(c.pat, "^") {
		tok.anchored = true
		c.i = 1
	}
	if strings.HasSuffix(c.pat, "$") && !strings.HasSuffix(c.pat, `\$`) {
		tok.endAnch = true
		c.pat = c.pat[:len(c.pat)-1]
	}
	c.parseSeq(false)
	if c.fail || c.i != len(c.pat) {
		return nil
	}
	c.flushLit()
	tok.elems = c.elems
	tok.names = c.names
	if !validTokenizer(tok) {
		return nil
	}
	if first := nextConsuming(tok, 0); !tok.anchored && first != nil && first.op == opLit {
		tok.lead = []byte(first.lit)
	}
	return tok
}

// parseSeq parses a concatenation; inGroup stops at ')'.
func (c *tokCompiler) parseSeq(inGroup bool) {
	for c.i < len(c.pat) && !c.fail {
		ch := c.pat[c.i]
		switch ch {
		case ')':
			if inGroup {
				return
			}
			c.reject()
		case '(':
			if inGroup {
				c.reject() // no nested groups in the dialect
				return
			}
			c.parseGroup()
		case '|', '^', '$', '*', '+', '?', '{', '}':
			c.reject() // bare metacharacter outside its supported position
		case '[':
			set, ok := c.parseClass()
			if !ok {
				c.reject()
				return
			}
			c.emitAtom(element{op: opClass, set: set, min: 1, max: 1})
		case '.':
			c.i++
			var set [4]uint64
			for i := range set {
				set[i] = ^uint64(0)
			}
			clearBit(&set, '\n')
			c.emitAtom(element{op: opClass, set: set, min: 1, max: 1})
		case '\\':
			c.i++
			if c.i >= len(c.pat) {
				c.reject()
				return
			}
			e := c.pat[c.i]
			c.i++
			if set, ok := escapeClass(e); ok {
				c.emitAtom(element{op: opClass, set: set, min: 1, max: 1})
			} else if b, ok := escapeLiteral(e); ok {
				c.emitLitAtom(b)
			} else {
				c.reject()
				return
			}
		default:
			if ch >= 0x80 {
				c.reject() // keep the dialect pure-ASCII at the pattern level
				return
			}
			c.i++
			c.emitLitAtom(ch)
		}
	}
}

// emitLitAtom appends one literal byte, honoring a trailing repeat by
// converting the byte into a single-byte class.
func (c *tokCompiler) emitLitAtom(b byte) {
	if min, max, ok := c.parseRepeat(); ok {
		var set [4]uint64
		setBit(&set, b)
		c.flushLit()
		c.elems = append(c.elems, element{op: opClass, set: set, min: min, max: max})
		return
	}
	if c.fail {
		return
	}
	c.lit = append(c.lit, b)
}

// emitAtom appends a class atom, honoring a trailing repeat.
func (c *tokCompiler) emitAtom(el element) {
	if min, max, ok := c.parseRepeat(); ok {
		el.min, el.max = min, max
	}
	if c.fail {
		return
	}
	c.flushLit()
	c.elems = append(c.elems, el)
}

// parseRepeat consumes a *, +, ? or {n[,m]} suffix if present. Lazy and
// possessive modifiers are outside the dialect.
func (c *tokCompiler) parseRepeat() (min, max int, ok bool) {
	if c.i >= len(c.pat) {
		return 0, 0, false
	}
	switch c.pat[c.i] {
	case '*':
		c.i++
		min, max, ok = 0, -1, true
	case '+':
		c.i++
		min, max, ok = 1, -1, true
	case '?':
		c.i++
		min, max, ok = 0, 1, true
	case '{':
		j := strings.IndexByte(c.pat[c.i:], '}')
		if j < 0 {
			c.reject()
			return 0, 0, false
		}
		body := c.pat[c.i+1 : c.i+j]
		c.i += j + 1
		lo, hi := body, body
		if k := strings.IndexByte(body, ','); k >= 0 {
			lo, hi = body[:k], body[k+1:]
		}
		min = atoiStrict(lo)
		if min < 0 {
			c.reject()
			return 0, 0, false
		}
		if hi == "" {
			max = -1
		} else {
			max = atoiStrict(hi)
			if max < min {
				c.reject()
				return 0, 0, false
			}
		}
		ok = true
	default:
		return 0, 0, false
	}
	// A second modifier (lazy `+?`, stacked repeats) leaves the dialect.
	if ok && c.i < len(c.pat) {
		switch c.pat[c.i] {
		case '*', '+', '?', '{':
			c.reject()
			return 0, 0, false
		}
	}
	return min, max, ok
}

// parseGroup parses "(?P<name>...)": either a literal alternation or an
// inline sub-sequence, bracketed by capture-slot saves.
func (c *tokCompiler) parseGroup() {
	if !strings.HasPrefix(c.pat[c.i:], "(?P<") {
		c.reject()
		return
	}
	c.i += len("(?P<")
	gt := strings.IndexByte(c.pat[c.i:], '>')
	if gt <= 0 {
		c.reject()
		return
	}
	name := c.pat[c.i : c.i+gt]
	c.i += gt + 1
	slot := 2 * len(c.names)
	c.names = append(c.names, name)

	// Literal alternation: the whole body is plain literals split by '|'.
	if end := strings.IndexByte(c.pat[c.i:], ')'); end >= 0 {
		body := c.pat[c.i : c.i+end]
		if strings.IndexByte(body, '|') >= 0 {
			alts := strings.Split(body, "|")
			for _, a := range alts {
				if a == "" || !plainLiteral(a) {
					c.reject()
					return
				}
			}
			c.i += end + 1
			c.flushLit()
			c.elems = append(c.elems,
				element{op: opSave, slot: slot},
				element{op: opAlt, alts: alts},
				element{op: opSave, slot: slot + 1})
			c.checkNoRepeat()
			return
		}
	}

	c.flushLit()
	c.elems = append(c.elems, element{op: opSave, slot: slot})
	c.parseSeq(true)
	if c.fail {
		return
	}
	if c.i >= len(c.pat) || c.pat[c.i] != ')' {
		c.reject()
		return
	}
	c.i++
	c.flushLit()
	c.elems = append(c.elems, element{op: opSave, slot: slot + 1})
	c.checkNoRepeat()
}

// checkNoRepeat rejects a repeat applied to a whole group.
func (c *tokCompiler) checkNoRepeat() {
	if c.i < len(c.pat) {
		switch c.pat[c.i] {
		case '*', '+', '?', '{':
			c.reject()
		}
	}
}

// parseClass parses "[...]" into a byte set. Negated classes complement
// over all 256 byte values, which matches rune-wise semantics for the
// unbounded repeats validation admits.
func (c *tokCompiler) parseClass() ([4]uint64, bool) {
	var set [4]uint64
	c.i++ // consume '['
	neg := false
	if c.i < len(c.pat) && c.pat[c.i] == '^' {
		neg = true
		c.i++
	}
	first := true
	for {
		if c.i >= len(c.pat) {
			return set, false
		}
		ch := c.pat[c.i]
		if ch == ']' && !first {
			c.i++
			break
		}
		first = false
		switch {
		case ch == '\\':
			c.i++
			if c.i >= len(c.pat) {
				return set, false
			}
			e := c.pat[c.i]
			c.i++
			if sub, ok := escapeClass(e); ok {
				for k := range set {
					set[k] |= sub[k]
				}
			} else if b, ok := escapeLiteral(e); ok {
				setBit(&set, b)
			} else {
				return set, false
			}
		case ch >= 0x80:
			return set, false
		default:
			c.i++
			// Range "a-z"?
			if c.i+1 < len(c.pat) && c.pat[c.i] == '-' && c.pat[c.i+1] != ']' {
				hi := c.pat[c.i+1]
				if hi == '\\' || hi >= 0x80 || hi < ch {
					return set, false
				}
				c.i += 2
				for b := ch; ; b++ {
					setBit(&set, b)
					if b == hi {
						break
					}
				}
			} else {
				setBit(&set, ch)
			}
		}
	}
	if neg {
		for k := range set {
			set[k] = ^set[k]
		}
	}
	return set, true
}

// escapeClass maps \d \s \w and their complements to byte sets (Go regexp
// Perl classes are ASCII-only; complements therefore include every high
// byte, consistent with rune-wise matching under the validation rules).
func escapeClass(e byte) ([4]uint64, bool) {
	var set [4]uint64
	switch e {
	case 'd', 'D':
		for b := byte('0'); b <= '9'; b++ {
			setBit(&set, b)
		}
	case 's', 'S':
		for _, b := range []byte{'\t', '\n', '\f', '\r', ' '} {
			setBit(&set, b)
		}
	case 'w', 'W':
		for b := byte('0'); b <= '9'; b++ {
			setBit(&set, b)
		}
		for b := byte('a'); b <= 'z'; b++ {
			setBit(&set, b)
		}
		for b := byte('A'); b <= 'Z'; b++ {
			setBit(&set, b)
		}
		setBit(&set, '_')
	default:
		return set, false
	}
	if e == 'D' || e == 'S' || e == 'W' {
		for k := range set {
			set[k] = ^set[k]
		}
	}
	return set, true
}

// escapeLiteral maps "\x" escapes of literal characters.
func escapeLiteral(e byte) (byte, bool) {
	switch e {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case 'f':
		return '\f', true
	case 'a', 'b', 'c', 'e', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'o', 'p',
		'q', 'u', 'v', 'x', 'y', 'z',
		'A', 'B', 'C', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N',
		'O', 'P', 'Q', 'R', 'T', 'U', 'V', 'X', 'Y', 'Z',
		'0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		// Alphanumeric escapes we don't model (\b, \x41, \Q...) leave the
		// dialect rather than risk a semantic mismatch.
		return 0, false
	default:
		if e >= 0x80 {
			return 0, false
		}
		return e, true // escaped punctuation is itself
	}
}

func setBit(set *[4]uint64, b byte)   { set[b>>6] |= 1 << (b & 63) }
func clearBit(set *[4]uint64, b byte) { set[b>>6] &^= 1 << (b & 63) }

func plainLiteral(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', '(', ')', '[', ']', '{', '}', '*', '+', '?', '|', '.', '^', '$':
			return false
		}
		if s[i] >= 0x80 {
			return false
		}
	}
	return len(s) > 0
}

func atoiStrict(s string) int {
	if s == "" {
		return -1
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' || n > 1<<20 {
			return -1
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// validTokenizer applies the byte-vs-rune equivalence rules. Byte-wise
// matching diverges from Go's rune-wise regexp semantics only when (a) a
// counted repeat can consume multi-byte runes (byte counts ≠ rune counts)
// or (b) a backtracking boundary can land mid-rune and the following
// element could match a continuation byte. Both shapes are rejected; the
// caller falls back to regexp.
func validTokenizer(t *tokenizer) bool {
	for i := range t.elems {
		el := &t.elems[i]
		if el.op != opClass {
			continue
		}
		if el.asciiOnly() {
			continue // byte positions are rune positions for ASCII classes
		}
		if el.max >= 0 && el.max != el.min {
			return false // counted high-byte repeat with a choice point
		}
		if el.max >= 0 && el.max > 1 {
			return false // fixed multi-count still counts bytes, not runes
		}
		// Unbounded (or {0,1}/{1,1}) high-byte class: the element after it
		// must reject continuation bytes instantly so only rune-aligned
		// backtracking boundaries can succeed.
		next := nextConsuming(t, i+1)
		if next == nil {
			continue // end of pattern (with or without $): boundaries are fine
		}
		if !asciiLead(next) {
			return false
		}
	}
	// Unanchored scans try every byte offset; the first element must
	// reject continuation bytes so only regexp-visible starts can match.
	if !t.anchored {
		first := nextConsuming(t, 0)
		if first != nil && !asciiLead(first) {
			return false
		}
	}
	return true
}

// nextConsuming returns the first input-consuming element at or after ei.
func nextConsuming(t *tokenizer, ei int) *element {
	for ; ei < len(t.elems); ei++ {
		if t.elems[ei].op != opSave {
			return &t.elems[ei]
		}
	}
	return nil
}

// asciiLead reports whether the element can only begin matching at an
// ASCII byte.
func asciiLead(el *element) bool {
	switch el.op {
	case opLit:
		return el.lit[0] < 0x80
	case opAlt:
		for _, a := range el.alts {
			if a[0] >= 0x80 {
				return false
			}
		}
		return true
	case opClass:
		if el.asciiOnly() {
			return true
		}
		// A skippable high-byte class (min 0) would shift the question to
		// the following element; keep the rule local and reject.
		return false
	}
	return false
}
