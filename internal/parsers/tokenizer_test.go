package parsers

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// planPatterns are the patterns the DefaultPlan declarations actually use
// (token patterns, lines-mode group rules, and Derive rules). The direct
// ingest path's speed rests on these compiling to tokenizers, and its
// correctness on the tokenizers agreeing with regexp.
var planPatterns = []string{
	ApacheInstructions().Pattern,
	TomcatInstructions().Pattern,
	CJDBCInstructions().Pattern,
	SelfTraceInstructions().Pattern,
	`^# Time: (?P<time>\S+)$`,
	`^# User@Host: \S+\[\S+\] @ (?P<caller>\S+) \[\S+\]  Id: +(?P<connid>\d+)$`,
	`^# Query_time: (?P<query_time>[0-9.]+)  Lock_time: (?P<lock_time>[0-9.]+) Rows_sent: (?P<rows_sent>\d+)  Rows_examined: (?P<rows_examined>\d+)$`,
	`^SET timestamp=(?P<set_ts>\d+);$`,
	`^(?P<sql>.*);$`,
	`[?&]ID=(?P<reqid>req-\d+)`,
	`/\*ID=(?P<reqid>req-\d+) q=(?P<q>\d+)\*/`,
}

// TestPlanPatternsCompileToTokenizers pins the perf contract: every
// DefaultPlan pattern must take the regex-free path. A pattern silently
// falling back to regexp would pass all correctness tests while quietly
// giving back the ingest speedup.
func TestPlanPatternsCompileToTokenizers(t *testing.T) {
	for _, p := range planPatterns {
		if tok := compileTokenizer(p); tok == nil {
			t.Errorf("pattern %q does not compile to a tokenizer", p)
		}
	}
}

// checkTokenizerAgainstRegexp compares the tokenizer and regexp answers
// for one pattern and input: same match verdict, same group values.
func checkTokenizerAgainstRegexp(t *testing.T, pattern, input string) {
	t.Helper()
	m, err := compileMatcher(pattern)
	if err != nil || m.tok == nil {
		t.Fatalf("pattern %q: matcher err=%v tok=%v", pattern, err, m)
	}
	sc := matchScratch{slots: make([]int, 2*len(m.names))}
	tokOK := m.tok.find([]byte(input), sc.slots)
	g := m.re.FindStringSubmatch(input)
	if tokOK != (g != nil) {
		t.Fatalf("pattern %q input %q: tokenizer match=%v, regexp match=%v",
			pattern, input, tokOK, g != nil)
	}
	if !tokOK {
		return
	}
	for i, name := range m.names {
		tokVal := input[sc.slots[2*i]:sc.slots[2*i+1]]
		reVal := g[m.idx[i]]
		if tokVal != reVal {
			t.Errorf("pattern %q input %q group %s: tokenizer %q, regexp %q",
				pattern, input, name, tokVal, reVal)
		}
	}
}

func TestTokenizerMatchesRegexp(t *testing.T) {
	cases := []struct{ pattern, input string }{
		{ApacheInstructions().Pattern, `10.0.0.3 - - [21/Jul/2026:09:15:02.113 +0000] "GET /rubbos/ViewStory?ID=req-00042 HTTP/1.1" 200 5120 D=18342 UA=1753089302113342 UD=1753089302131684 DS=apache DR=tomcat`},
		{ApacheInstructions().Pattern, `not an access log line`},
		{TomcatInstructions().Pattern, `2026-07-21 09:15:02.114 [http-worker-3] INFO  mScope - id=req-00042 uri=/rubbos/ViewStory ua=1753089302114000 ud=1753089302130000 ds=tomcat dr=cjdbc`},
		{CJDBCInstructions().Pattern, `[cjdbc-ctrl] 1753089302.115223 vdb=rubbos req=req-00042 q=3 ua=1753089302115223 ud=1753089302128991 ds=cjdbc dr=mysql sql="SELECT * FROM stories /*ID=req-00042 q=3*/"`},
		// Greedy .* must take the LAST quote before $.
		{`^sql="(?P<sql>.*)"$`, `sql="a "quoted" value"`},
		{`^(?P<sql>.*);$`, `SELECT 1; SELECT 2;`},
		{`^(?P<sql>.*);$`, `no semicolon here`},
		// Non-self-delimiting \S+\[: the cut point is inside a \S run.
		{`^# User@Host: \S+\[\S+\] @ (?P<caller>\S+) \[\S+\]  Id: +(?P<connid>\d+)$`,
			`# User@Host: rubbos[rubbos] @ tomcat.local [10.0.0.2]  Id:   77`},
		// Alternation order: "counter" must not be shadowed by "span".
		{`kind=(?P<kind>span|counter)`, `kind=counter x`},
		{`kind=(?P<kind>span|counter)`, `kind=span x`},
		{`kind=(?P<kind>span|counter)`, `kind=spam x`},
		// Optional sign.
		{`^items=(?P<items>-?\d+)$`, `items=-42`},
		{`^items=(?P<items>-?\d+)$`, `items=42`},
		{`^items=(?P<items>-?\d+)$`, `items=-`},
		// Unanchored scan with mid-string match.
		{`[?&]ID=(?P<reqid>req-\d+)`, `/rubbos/StoriesOfTheDay?x=1&ID=req-00099&y=2`},
		{`/\*ID=(?P<reqid>req-\d+) q=(?P<q>\d+)\*/`, `SELECT 1 /*ID=req-7 q=12*/`},
		// Trailing-newline $ semantics.
		{`^SET timestamp=(?P<set_ts>\d+);$`, "SET timestamp=1753089302;\n"},
		{`^SET timestamp=(?P<set_ts>\d+);$`, "SET timestamp=1753089302;x"},
		// Multi-byte input through \S+ and .* (boundaries must stay
		// rune-aligned exactly where regexp puts them).
		{`^# Time: (?P<time>\S+)$`, "# Time: 2026-07-21T09:15:02.000000Z"},
		{`^# Time: (?P<time>\S+)$`, "# Time: \xc3\xa9poch"},
		{`^(?P<sql>.*);$`, "SELECT 'caf\xc3\xa9';"},
		{`^(?P<sql>.*);$`, "SELECT '\xff\xfe';"},
		// Lone continuation bytes and truncated runes.
		{`^# Time: (?P<time>\S+)$`, "# Time: \xa9"},
		{`kind=(?P<kind>span|counter)`, "\xa9kind=span"},
		// Empty and whitespace-only inputs.
		{ApacheInstructions().Pattern, ``},
		{`^(?P<sql>.*);$`, `;`},
	}
	for _, tc := range cases {
		checkTokenizerAgainstRegexp(t, tc.pattern, tc.input)
	}
}

// FuzzTokenizerEquivalence drives arbitrary bytes through every plan
// pattern's tokenizer and the reference regexp; any divergence in match
// verdict or group values is a bug in the compiled tokenizer.
func FuzzTokenizerEquivalence(f *testing.F) {
	f.Add(uint8(0), `10.0.0.3 - - [21/Jul/2026:09:15:02.113 +0000] "GET /x?ID=req-1 HTTP/1.1" 200 1 D=2 UA=3 UD=4 DS=a DR=b`)
	f.Add(uint8(8), `SELECT * FROM stories /*ID=req-1 q=2*/;`)
	f.Add(uint8(3), `2026-07-21T09:15:02.113Z mscope-self kind=span batch=b1 pipeline=ingest stage=parse span=s1 file=f dur_us=10 items=-1 errs=0`)
	f.Add(uint8(5), `# User@Host: a[b] @ c [d]  Id: 9`)
	f.Add(uint8(9), "caf\xc3\xa9?ID=req-3")
	// The ID comment's pattern begins with a literal, which the
	// unanchored search jumps between: repeated, overlapping, at the very
	// end, and absent.
	f.Add(uint8(10), `/*ID=x /*ID=req-1 q=2*/ /*ID=req-3 q=4*/`)
	f.Add(uint8(10), `/*/*ID=req-1 q=2*/`)
	f.Add(uint8(10), `/*ID=req-1 q=2*//*ID=`)
	f.Add(uint8(10), `SELECT 1 /* ID=req-1 q=2 */;`)
	f.Fuzz(func(t *testing.T, which uint8, input string) {
		pattern := planPatterns[int(which)%len(planPatterns)]
		tok := compileTokenizer(pattern)
		if tok == nil {
			t.Fatalf("pattern %q lost its tokenizer", pattern)
		}
		re := regexp.MustCompile(pattern)
		slots := make([]int, 2*len(tok.names))
		tokOK := tok.find([]byte(input), slots)
		g := re.FindStringSubmatch(input)
		if tokOK != (g != nil) {
			t.Fatalf("pattern %q input %q: tokenizer=%v regexp=%v", pattern, input, tokOK, g != nil)
		}
		if !tokOK {
			return
		}
		gi := 0
		for i, name := range re.SubexpNames() {
			if i == 0 || name == "" {
				continue
			}
			if got, want := input[slots[2*gi]:slots[2*gi+1]], g[i]; got != want {
				t.Fatalf("pattern %q input %q group %s: tokenizer %q regexp %q",
					pattern, input, name, got, want)
			}
			gi++
		}
	})
}

// TestLeadingLiteralFound: an unanchored pattern that begins with a
// literal searches for it instead of trying a match at every offset.
func TestLeadingLiteralFound(t *testing.T) {
	for _, tc := range []struct{ pattern, lead string }{
		{`/\*ID=(?P<reqid>req-\d+) q=(?P<q>\d+)\*/`, "/*ID="},
		{`(?P<a>x)yz`, "x"},
		{`[?&]ID=(?P<reqid>req-\d+)`, ""},
		{`^# Time: (?P<time>\S+)$`, ""},
	} {
		if tok := compileTokenizer(tc.pattern); tok == nil || string(tok.lead) != tc.lead {
			t.Errorf("pattern %q: lead %q, want %q", tc.pattern, tok.lead, tc.lead)
		}
	}
}

// TestMatcherCacheEviction floods the cache far past its cap from several
// goroutines while other goroutines keep parsing with the plan patterns.
// Eviction must never corrupt a concurrent parse (matchers are immutable;
// eviction only forces a recompile) and the cache must stay bounded.
func TestMatcherCacheEviction(t *testing.T) {
	const floods = 4 * matcherCacheCap
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < floods; i++ {
				p := fmt.Sprintf(`^flood-%d-%d (?P<v>\d+)$`, w, i)
				m, err := compileMatcher(p)
				if err != nil {
					t.Errorf("compile %q: %v", p, err)
					return
				}
				var sc matchScratch
				if line := fmt.Sprintf("flood-%d-%d 7", w, i); !m.match([]byte(line), &sc) || line[sc.slots[0]:sc.slots[1]] != "7" {
					t.Errorf("pattern %q: flood matcher misparsed", p)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := `10.0.0.3 - - [21/Jul/2026:09:15:02.113 +0000] "GET /x?ID=req-1 HTTP/1.1" 200 1 D=2 UA=3 UD=4 DS=a DR=b`
			for i := 0; i < floods; i++ {
				m, err := compileMatcher(ApacheInstructions().Pattern)
				if err != nil {
					t.Errorf("compile apache: %v", err)
					return
				}
				var sc matchScratch
				if !m.match([]byte(line), &sc) || line[sc.slots[0]:sc.slots[1]] != "10.0.0.3" {
					t.Errorf("apache matcher misparsed under eviction pressure")
					return
				}
			}
		}()
	}
	wg.Wait()
	matcherCacheMu.RLock()
	n := len(matcherCache)
	matcherCacheMu.RUnlock()
	if n > matcherCacheCap {
		t.Fatalf("matcher cache grew to %d entries, cap is %d", n, matcherCacheCap)
	}
}

// TestFieldsIntoMatchesStringsFields pins the index-walking splitter to
// the strings.Fields reference, including Unicode-space fallbacks.
func TestFieldsIntoMatchesStringsFields(t *testing.T) {
	inputs := []string{
		"",
		"   ",
		"a b c",
		"  leading and   multiple\t\ttabs\r\n",
		"one",
		"\va\fb\vc\f",
		"caf\xc3\xa9  cr\xc3\xa8me",
		"nbsp separated",   // U+00A0 is a Unicode space: fallback path
		"line separator x", // U+2028 likewise
		"\xff raw high bytes \xfe",
	}
	var buf [][]byte
	for _, in := range inputs {
		got := fieldsInto([]byte(in), buf)
		buf = got
		want := strings.Fields(in)
		if len(got) != len(want) {
			t.Errorf("fieldsInto(%q) = %q, want %q", in, got, want)
			continue
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Errorf("fieldsInto(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

// TestSplitIntoMatchesStringsSplit pins the comma splitter to
// strings.Split.
func TestSplitIntoMatchesStringsSplit(t *testing.T) {
	inputs := []string{"", ",", "a,b,c", ",a,,b,", "no separators", "tr\xc3\xa9s,bien"}
	var buf [][]byte
	for _, in := range inputs {
		got := splitInto([]byte(in), ',', buf)
		buf = got
		want := strings.Split(in, ",")
		if len(got) != len(want) {
			t.Errorf("splitInto(%q) = %q, want %q", in, got, want)
			continue
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Errorf("splitInto(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}
