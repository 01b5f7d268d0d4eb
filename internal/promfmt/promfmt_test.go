package promfmt

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWriterRendersFamilies(t *testing.T) {
	var w Writer
	w.Gauge("mscope_rows_total", "rows appended", 42)
	w.Counter("mscope_stalls_total", "stall events", 3)
	f := w.GaugeFamily("mscope_source_rows", "per-source rows")
	f.Label("file", "apache_access.log", 7)
	f.Label("file", "mysql_slow.log", 9)
	out := w.String()

	want := []string{
		"# HELP mscope_rows_total rows appended",
		"# TYPE mscope_rows_total gauge",
		"mscope_rows_total 42",
		"# TYPE mscope_stalls_total counter",
		"mscope_stalls_total 3",
		`mscope_source_rows{file="apache_access.log"} 7`,
		`mscope_source_rows{file="mysql_slow.log"} 9`,
	}
	for _, s := range want {
		if !strings.Contains(out, s+"\n") {
			t.Errorf("output missing line %q:\n%s", s, out)
		}
	}
	if err := Lint(out); err != nil {
		t.Errorf("Lint rejects Writer output: %v", err)
	}
}

// TestHistogramExposition pins the histogram family's text: the fixed
// bounds as cumulative le buckets (an observation on a bound counts in
// it), +Inf equal to the count, the sum in seconds — and that two nodes'
// histograms merge by adding line by line, since the bounds are fixed.
func TestHistogramExposition(t *testing.T) {
	var a, b Histogram
	for _, d := range []time.Duration{300 * time.Microsecond, time.Millisecond, 640 * time.Millisecond, 1700 * time.Millisecond} {
		a.Observe(d)
	}
	b.Observe(3100 * time.Millisecond)
	b.Observe(2 * time.Minute)
	var w Writer
	w.Gauge("mscope_before", "h", 1)
	w.Histogram("mscope_detect_delay_seconds", "window end to alert", &a)
	w.Histogram("mscope_other_seconds", "another node's", &b)
	w.Counter("mscope_after_total", "h", 2)
	out := w.String()
	want := `# HELP mscope_detect_delay_seconds window end to alert
# TYPE mscope_detect_delay_seconds histogram
mscope_detect_delay_seconds_bucket{le="0.001"} 2
mscope_detect_delay_seconds_bucket{le="0.002"} 2
mscope_detect_delay_seconds_bucket{le="0.005"} 2
mscope_detect_delay_seconds_bucket{le="0.01"} 2
mscope_detect_delay_seconds_bucket{le="0.02"} 2
mscope_detect_delay_seconds_bucket{le="0.05"} 2
mscope_detect_delay_seconds_bucket{le="0.1"} 2
mscope_detect_delay_seconds_bucket{le="0.2"} 2
mscope_detect_delay_seconds_bucket{le="0.5"} 2
mscope_detect_delay_seconds_bucket{le="1"} 3
mscope_detect_delay_seconds_bucket{le="2"} 4
mscope_detect_delay_seconds_bucket{le="5"} 4
mscope_detect_delay_seconds_bucket{le="10"} 4
mscope_detect_delay_seconds_bucket{le="20"} 4
mscope_detect_delay_seconds_bucket{le="50"} 4
mscope_detect_delay_seconds_bucket{le="+Inf"} 4
mscope_detect_delay_seconds_sum 2.3413
mscope_detect_delay_seconds_count 4
`
	if !strings.Contains(out, want) {
		t.Errorf("histogram family renders as:\n%s\nwant it to contain:\n%s", out, want)
	}
	for _, line := range []string{
		`mscope_other_seconds_bucket{le="2"} 0`,
		`mscope_other_seconds_bucket{le="5"} 1`,
		`mscope_other_seconds_bucket{le="50"} 1`,
		`mscope_other_seconds_bucket{le="+Inf"} 2`,
		`mscope_other_seconds_sum 123.1`,
		`mscope_other_seconds_count 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing line %q", line)
		}
	}
	if err := Lint(out); err != nil {
		t.Errorf("Lint rejects a body with histogram families: %v", err)
	}
	if got, want := strings.Count(out, "mscope_other_seconds_bucket{"), len(HistogramBounds)+1; got != want {
		t.Errorf("%d buckets, want the %d fixed bounds and +Inf", got, want-1)
	}
	for i := 1; i < len(HistogramBounds); i++ {
		if r := HistogramBounds[i] / HistogramBounds[i-1]; r < 2 || r > 2.5 {
			t.Errorf("bounds %g, %g are not a 1-2-5 log scale", HistogramBounds[i-1], HistogramBounds[i])
		}
	}
}

// TestHistogramConcurrentObserve: the loader observes while scrapes
// render; every rendering lints and the final count is exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(i) * time.Millisecond)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var w Writer
		w.Histogram("mscope_h_seconds", "h", &h)
		if strings.Count(w.String(), "\n") != len(HistogramBounds)+5 {
			t.Errorf("mid-run rendering has the wrong shape:\n%s", w.String())
		}
	}
	wg.Wait()
	var w Writer
	w.Histogram("mscope_h_seconds", "h", &h)
	if !strings.Contains(w.String(), "mscope_h_seconds_count 2000\n") || !strings.Contains(w.String(), `le="+Inf"} 2000`) {
		t.Errorf("final rendering lost observations:\n%s", w.String())
	}
}

func TestWriterPanicsOnBadUse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("missing prefix", func() {
		var w Writer
		w.Gauge("rows_total", "h", 1)
	})
	expectPanic("duplicate family", func() {
		var w Writer
		w.Gauge("mscope_x", "h", 1)
		w.Gauge("mscope_x", "h", 2)
	})
	expectPanic("newline in help", func() {
		var w Writer
		w.Gauge("mscope_x", "a\nb", 1)
	})
}

func TestLintRejections(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"sample without header", "mscope_x 1\n", "undeclared"},
		{"type without help", "# TYPE mscope_x gauge\nmscope_x 1\n", "without immediately preceding HELP"},
		{"unprefixed sample", "# HELP other_x h\n# TYPE other_x gauge\nother_x 1\n", "prefix"},
		{"duplicate family", "# HELP mscope_x h\n# TYPE mscope_x gauge\nmscope_x 1\n# HELP mscope_x h\n# TYPE mscope_x gauge\nmscope_x 2\n", "twice"},
		{"interleaved families", "# HELP mscope_x h\n# TYPE mscope_x gauge\n# HELP mscope_y h\n# TYPE mscope_y gauge\nmscope_y 1\nmscope_x 1\n", "interleaves"},
		{"header with no samples", "# HELP mscope_x h\n# TYPE mscope_x gauge\n", "no samples"},
		{"bucket sample under a gauge", "# HELP mscope_x h\n# TYPE mscope_x gauge\nmscope_x_bucket{le=\"1\"} 1\n", "undeclared"},
		{"histogram sample after its block", "# HELP mscope_h h\n# TYPE mscope_h histogram\nmscope_h_count 0\n# HELP mscope_x h\n# TYPE mscope_x gauge\nmscope_x 1\nmscope_h_sum 0\n", "undeclared"},
		{"unknown type", "# HELP mscope_x h\n# TYPE mscope_x summary\nmscope_x 1\n", "malformed TYPE"},
	}
	for _, tc := range cases {
		err := Lint(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Lint = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
