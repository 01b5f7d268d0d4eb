package stream

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

func TestGraceFor(t *testing.T) {
	const floor, ceiling = 52_000, 2_000_000
	for _, tc := range []struct {
		name                                  string
		residence, tail, floor, ceiling, want int64
	}{
		{"nothing observed: the floor", 0, 0, floor, ceiling, floor},
		{"residence below half the floor: the floor", 20_000, 0, floor, ceiling, floor},
		{"a 300 ms flush: twice its residence", 300_000, 0, floor, ceiling, 600_000},
		{"windows still starting 400 ms on: that on top", 300_000, 400_000, floor, ceiling, 1_000_000},
		{"residence of half the ceiling: the ceiling", 1_000_000, 0, floor, ceiling, ceiling},
		{"residence at the ceiling: what the constant waited", ceiling, 0, floor, ceiling, ceiling},
		{"a 3 s retransmission: what the constant waited", 3_000_000, 0, floor, ceiling, ceiling},
		{"a long tail alone reaches the ceiling", 10_000, 5_000_000, floor, ceiling, ceiling},
		{"--grace below the floor wins as the ceiling", 300_000, 0, floor, 10_000, 10_000},
		{"--grace below the floor, nothing observed", 0, 0, floor, 10_000, 10_000},
	} {
		if got := graceFor(tc.residence, tc.tail, tc.floor, tc.ceiling); got != tc.want {
			t.Errorf("%s: graceFor(%d, %d, %d, %d) = %d, want %d", tc.name, tc.residence, tc.tail, tc.floor, tc.ceiling, got, tc.want)
		}
	}
	for _, c := range []int64{10_000, floor, 500_000, ceiling} {
		prev := int64(0)
		for r := int64(0); r <= 3_000_000; r += 7_000 {
			g := graceFor(r, 0, floor, c)
			switch {
			case g < prev:
				t.Fatalf("ceiling %d: grace falls from %d to %d as residence rises to %d", c, prev, g, r)
			case g > c:
				t.Fatalf("ceiling %d: grace %d above it at residence %d", c, g, r)
			case g < min(floor, c):
				t.Fatalf("ceiling %d: grace %d below the floor at residence %d", c, g, r)
			case r >= c && g != c:
				t.Fatalf("ceiling %d: residence %d reaches it, grace %d is not the constant's wait", c, r, g)
			}
			prev = g
		}
	}
}

// spikeDetector is a detector over the batch dbio warehouse that has seen
// steady 5 ms traffic for the trial's 12 s and one request resident
// residence, departing 6 s in: one flagged bucket, ending endUS.
func spikeDetector(t *testing.T, db *mscopedb.DB, grace, residence time.Duration) (d *detector, endUS int64) {
	t.Helper()
	d = newDetector(db, 50*time.Millisecond, grace, 2*time.Millisecond)
	epoch := simtime.Epoch.UnixMicro()
	for us := int64(10_000); us < 12_000_000; us += 5_000 {
		d.observe(epoch+us-5_000, epoch+us)
	}
	d.observe(epoch+6_010_000-residence.Microseconds(), epoch+6_010_000)
	return d, epoch + 6_050_000
}

// TestDueWatermark: a window is classified at the first watermark that has
// end + pad + its grace behind it, and not one microsecond before — which
// for an episode whose residence reaches the ceiling is the watermark the
// constant grace classified it at.
func TestDueWatermark(t *testing.T) {
	db, _ := batchBaseline(t)
	pad := core.ClassifyPad.Microseconds()
	for _, tc := range []struct {
		name             string
		grace, residence time.Duration
		want             Wait
	}{
		{"peak past the ceiling waits the ceiling", DefaultGrace, 2500 * time.Millisecond,
			Wait{GraceUS: 2_000_000, ResidenceUS: 2_500_000, CeilingUS: 2_000_000, DelayUS: pad + 2_000_000}},
		{"peak at the ceiling waits the ceiling", DefaultGrace, DefaultGrace,
			Wait{GraceUS: 2_000_000, ResidenceUS: 2_000_000, CeilingUS: 2_000_000, DelayUS: pad + 2_000_000}},
		{"a 300 ms peak waits 600 ms", DefaultGrace, 300 * time.Millisecond,
			Wait{GraceUS: 600_000, ResidenceUS: 300_000, CeilingUS: 2_000_000, DelayUS: pad + 600_000}},
		{"a 60 ms peak waits 120 ms", DefaultGrace, 60 * time.Millisecond,
			Wait{GraceUS: 120_000, ResidenceUS: 60_000, CeilingUS: 2_000_000, DelayUS: pad + 120_000}},
		{"--grace 10ms, below the floor, is the wait", 10 * time.Millisecond, 300 * time.Millisecond,
			Wait{GraceUS: 10_000, ResidenceUS: 300_000, CeilingUS: 10_000, DelayUS: pad + 10_000}},
	} {
		d, end := spikeDetector(t, db, tc.grace, tc.residence)
		due := end + tc.want.DelayUS
		if alerts, err := d.advance(due - 1); err != nil || len(alerts) != 0 {
			t.Errorf("%s: %d alerts (err %v) one microsecond before the window is due", tc.name, len(alerts), err)
		}
		alerts, err := d.advance(due)
		if err != nil || len(alerts) != 1 {
			t.Errorf("%s: %d alerts (err %v) at the due watermark, want 1", tc.name, len(alerts), err)
			continue
		}
		if a := alerts[0]; a.Wait != tc.want || a.WatermarkUS != due || a.Diagnosis.Window.EndMicros != end {
			t.Errorf("%s: alert waited %+v at watermark %d for the window ending %d, want %+v at %d for %d",
				tc.name, a.Wait, a.WatermarkUS, a.Diagnosis.Window.EndMicros, tc.want, due, end)
		}
		if again, _ := d.advance(due + 1_000_000); len(again) != 0 {
			t.Errorf("%s: the window was raised again", tc.name)
		}
	}
	// The shutdown pass waits for nothing, and says so.
	d, _ := spikeDetector(t, db, DefaultGrace, 300*time.Millisecond)
	alerts, err := d.advance(finalLow)
	if err != nil || len(alerts) != 1 || alerts[0].DelayUS != 0 || alerts[0].GraceUS != 600_000 {
		t.Errorf("shutdown pass: %d alerts (err %v) %+v, want one with no delay", len(alerts), err, alerts)
	}
}

// TestTailHoldsAnEpisodeTogether: while flagged windows keep starting
// inside a window's correlation slice the episode is not over, and the
// window waits for the last of them to end as well.
func TestTailHoldsAnEpisodeTogether(t *testing.T) {
	db, _ := batchBaseline(t)
	d, end := spikeDetector(t, db, DefaultGrace, 300*time.Millisecond)
	// A second spike 400 ms after the first window's end, inside its slice.
	d.observe(end+410_000-300_000, end+410_000)
	end2 := end + 450_000
	pad := core.ClassifyPad.Microseconds()
	if alerts, _ := d.advance(end + pad + 600_000); len(alerts) != 0 {
		t.Fatalf("first window raised alone, %d alerts, with another starting in its slice", len(alerts))
	}
	alerts, err := d.advance(end2 + pad + 600_000)
	if err != nil || len(alerts) != 2 {
		t.Fatalf("%d alerts (err %v) once the second window is due, want both", len(alerts), err)
	}
	if got, want := alerts[0].GraceUS, int64(600_000+450_000); got != want {
		t.Errorf("first window's grace %d, want its residence's plus the tail: %d", got, want)
	}
}

// evidencePipeline is an unstarted pipeline over db whose detector has one
// window due, and the watermark it is due at.
func evidencePipeline(t *testing.T, db *mscopedb.DB) (*Pipeline, int64) {
	t.Helper()
	p, err := New(Config{LogDir: t.TempDir(), DB: db})
	if err != nil {
		t.Fatal(err)
	}
	var end int64
	p.det, end = spikeDetector(t, db, DefaultGrace, 300*time.Millisecond)
	return p, end + core.ClassifyPad.Microseconds() + 600_000
}

// TestEvidenceNotThereYetIsNotAnError: with the front tier loaded and no
// resource table yet, a due window waits for the next pass in silence.
func TestEvidenceNotThereYetIsNotAnError(t *testing.T) {
	logs := t.TempDir()
	data, err := os.ReadFile(filepath.Join(stagedDBIO(t), "apache_access.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logs, "apache_access.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	db := mscopedb.Open()
	if _, err := transform.IngestDir(db, logs, t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	p, due := evidencePipeline(t, db)
	p.detect(selfobs.NewBuf(), "advance", due)
	if st := p.Status(); st.EvidenceErrors != 0 || st.EvidenceError != "" || st.Alerts != 0 {
		t.Errorf("missing collectl tables: %d evidence errors (%q), %d alerts; want a silent retry",
			st.EvidenceErrors, st.EvidenceError, st.Alerts)
	}
	if len(p.det.alerted) != 0 {
		t.Error("the window was marked alerted with no evidence to classify it")
	}
}

// TestEvidenceFailureIsCountedAndShown: a front-tier segment that fails its
// checksum is not "not there yet". Every pass that hits it is counted, the
// message is on /status and the count on /metrics, and the window stays due.
func TestEvidenceFailureIsCountedAndShown(t *testing.T) {
	dir := t.TempDir()
	opts := mscopedb.StoreOptions{SealRows: 2048}
	db, err := mscopedb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.IngestDir(db, stagedDBIO(t), t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*-apache_event.seg"))
	if len(segs) == 0 {
		t.Fatal("no sealed apache_event segment to damage")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = mscopedb.OpenDir(dir, opts); err != nil {
		t.Fatal(err)
	}
	p, due := evidencePipeline(t, db)
	for pass := int64(1); pass <= 2; pass++ {
		p.detect(selfobs.NewBuf(), "advance", due+pass*50_000)
		st := p.Status()
		if st.EvidenceErrors != pass || st.Alerts != 0 {
			t.Fatalf("pass %d: %d evidence errors, %d alerts", pass, st.EvidenceErrors, st.Alerts)
		}
		if !strings.Contains(st.EvidenceError, filepath.Base(segs[0])) || !strings.Contains(st.EvidenceError, "checksum") {
			t.Errorf("pass %d: /status says %q, want the segment and its checksum mismatch", pass, st.EvidenceError)
		}
	}
	if !strings.Contains(p.MetricsText(), "\nmscope_detector_evidence_errors_total 2\n") {
		t.Errorf("/metrics does not count the two failed passes:\n%s", p.MetricsText())
	}
	if len(p.det.alerted) != 0 {
		t.Error("the window was marked alerted though its evidence never built")
	}
}
