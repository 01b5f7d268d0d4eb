package selfobs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var testCounter = NewCounter(PipeLive, "watermark", "rows_advanced")

// The acceptance bar: with no collector installed, the whole API must add
// zero allocations per record.
func TestDisabledZeroAlloc(t *testing.T) {
	Disable()
	if n := testing.AllocsPerRun(1000, func() {
		b := NewBuf()
		s := b.Begin(PipeIngest, "parse", "whole", "app_event.log")
		s.End(100, 0)
		b.Close()
	}); n != 0 {
		t.Errorf("disabled Buf path allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s := Begin(PipeIngest, "append", "-", "app_event.log")
		s.End(1, 0)
	}); n != 0 {
		t.Errorf("disabled Begin/End allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		testCounter.Add(5)
	}); n != 0 {
		t.Errorf("disabled Counter.Add allocates %v per run, want 0", n)
	}
}

func TestEnableDisableRoundTrip(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	c := Enable("b1", epoch)
	defer Disable()
	if !Enabled() {
		t.Fatal("Enabled() = false after Enable")
	}
	s := Begin(PipeDiagnose, "vlrt", "-", "")
	s.End(7, 1)
	b := NewBuf()
	b.Begin(PipeIngest, "parse", "whole", "web_event.log").End(42, 0)
	b.Close()
	testCounter.Add(9)

	if got := Disable(); got != c {
		t.Fatalf("Disable returned %p, want %p", got, c)
	}
	var sb strings.Builder
	n, err := c.WriteLog(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("wrote %d lines, want 3 (2 spans + 1 counter):\n%s", n, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"mscope-self kind=span batch=b1 pipeline=diagnose stage=vlrt span=- file=- ",
		"items=7 errs=1",
		"kind=span batch=b1 pipeline=ingest stage=parse span=whole file=web_event.log",
		"kind=counter batch=b1 pipeline=live stage=watermark span=rows_advanced file=- dur_us=0 items=9 errs=0",
		"2026-01-02T03:04:05.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if got := len(strings.Fields(line)); got != 11 {
			t.Errorf("line has %d tokens, want 11: %q", got, line)
		}
	}
}

func TestCountersResetOnEnable(t *testing.T) {
	Enable("warm", time.Unix(0, 0).UTC())
	testCounter.Add(100)
	Disable()
	c := Enable("fresh", time.Unix(0, 0).UTC())
	defer Disable()
	snap := c.Snapshot()
	if len(snap) != 0 {
		t.Fatalf("fresh session inherited %d records: %v", len(snap), snap)
	}
}

func TestTokenSanitizes(t *testing.T) {
	cases := map[string]string{
		"":             "-",
		"plain":        "plain",
		"two words":    "two_words",
		"tab\tand\nnl": "tab_and_nl",
		"s0":           "s0",
	}
	for in, want := range cases {
		if got := token(in); got != want {
			t.Errorf("token(%q) = %q, want %q", in, got, want)
		}
	}
}

// Hammer concurrent emission from many goroutines mixing Bufs, one-shot
// spans, and counters; meant to run under -race (race-short does).
func TestConcurrentEmissionHammer(t *testing.T) {
	const goroutines = 16
	const spansEach = 200
	c := Enable("hammer", time.Unix(0, 0).UTC())
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewBuf()
			for i := 0; i < spansEach; i++ {
				s := b.Begin(PipeIngest, "parse", "whole", "hammer.log")
				s.End(int64(i), 0)
				testCounter.Add(1)
			}
			b.Close()
			Begin(PipeIngest, "append", "seq", "hammer.log").End(1, 0)
		}()
	}
	wg.Wait()
	wantSpans := goroutines*spansEach + goroutines
	if got := c.Len(); got != wantSpans {
		t.Fatalf("collector holds %d spans, want %d", got, wantSpans)
	}
	var sb strings.Builder
	n, err := c.WriteLog(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantSpans+1 { // +1 for the counter snapshot line
		t.Fatalf("wrote %d lines, want %d", n, wantSpans+1)
	}
	if !strings.Contains(sb.String(), "items="+strconv.Itoa(goroutines*spansEach)) {
		t.Errorf("counter line missing value %d", goroutines*spansEach)
	}
}

// Durations must be non-negative even across wall-clock jumps: they come
// from the monotonic clock.
func TestSpanDurationMonotonic(t *testing.T) {
	c := Enable("mono", time.Unix(0, 0).UTC())
	defer Disable()
	s := Begin(PipeTrace, "render", "-", "")
	time.Sleep(time.Millisecond)
	s.End(0, 0)
	recs := c.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d recs, want 1", len(recs))
	}
	if recs[0].DurNS < int64(time.Millisecond) {
		t.Errorf("DurNS = %d, want >= 1ms", recs[0].DurNS)
	}
	if recs[0].StartNS < 0 {
		t.Errorf("StartNS = %d, want >= 0", recs[0].StartNS)
	}
}
