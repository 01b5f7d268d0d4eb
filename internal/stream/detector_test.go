package stream

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

func TestGraceFor(t *testing.T) {
	const floor, ceiling = 52_000, 2_000_000
	for _, tc := range []struct {
		name                            string
		residence, floor, ceiling, want int64
	}{
		{"nothing observed: the floor", 0, floor, ceiling, floor},
		{"residence below half the floor: the floor", 20_000, floor, ceiling, floor},
		{"a 300 ms flush: twice its residence", 300_000, floor, ceiling, 600_000},
		{"residence of half the ceiling: the ceiling", 1_000_000, floor, ceiling, ceiling},
		{"residence at the ceiling: what the constant waited", ceiling, floor, ceiling, ceiling},
		{"a 3 s retransmission: what the constant waited", 3_000_000, floor, ceiling, ceiling},
		{"a ceiling below the floor wins", 300_000, floor, 10_000, 10_000},
		{"a ceiling below the floor, nothing observed", 0, floor, 10_000, 10_000},
	} {
		if got := graceFor(tc.residence, tc.floor, tc.ceiling); got != tc.want {
			t.Errorf("%s: graceFor(%d, %d, %d) = %d, want %d", tc.name, tc.residence, tc.floor, tc.ceiling, got, tc.want)
		}
	}
	for _, c := range []int64{10_000, floor, 500_000, ceiling} {
		prev := int64(0)
		for r := int64(0); r <= 3_000_000; r += 7_000 {
			g := graceFor(r, floor, c)
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
		d.eps.PIT.Observe(epoch+us-5_000, epoch+us)
	}
	d.eps.PIT.Observe(epoch+6_010_000-residence.Microseconds(), epoch+6_010_000)
	return d, epoch + 6_050_000
}

// TestDueWatermark: a window is classified at the first watermark that has
// end + min(Peak, pad) + its grace behind it, and not one microsecond
// before — which for an episode whose residence reaches the ceiling (and
// so the pad) is the watermark the constant grace classified it at.
func TestDueWatermark(t *testing.T) {
	db, _ := batchBaseline(t)
	pad := core.ClassifyPad.Microseconds()
	for _, tc := range []struct {
		name             string
		grace, residence time.Duration
		want             Wait
	}{
		{"peak past the ceiling waits the pad and the ceiling", DefaultGrace, 2500 * time.Millisecond,
			Wait{SliceUS: pad, GraceUS: 2_000_000, ResidenceUS: 2_500_000, CeilingUS: 2_000_000, DelayUS: pad + 2_000_000}},
		{"peak at the ceiling waits the pad and the ceiling", DefaultGrace, DefaultGrace,
			Wait{SliceUS: pad, GraceUS: 2_000_000, ResidenceUS: 2_000_000, CeilingUS: 2_000_000, DelayUS: pad + 2_000_000}},
		{"a 300 ms peak waits 300 + 600 ms", DefaultGrace, 300 * time.Millisecond,
			Wait{SliceUS: 300_000, GraceUS: 600_000, ResidenceUS: 300_000, CeilingUS: 2_000_000, DelayUS: 300_000 + 600_000}},
		{"a 60 ms peak waits 60 + 120 ms", DefaultGrace, 60 * time.Millisecond,
			Wait{SliceUS: 60_000, GraceUS: 120_000, ResidenceUS: 60_000, CeilingUS: 2_000_000, DelayUS: 60_000 + 120_000}},
		{"a 10 ms ceiling, below the floor, is the grace", 10 * time.Millisecond, 300 * time.Millisecond,
			Wait{SliceUS: 300_000, GraceUS: 10_000, ResidenceUS: 300_000, CeilingUS: 10_000, DelayUS: 300_000 + 10_000}},
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

// TestDipDoesNotSplitAnEpisode: a second spike after a dip of at most
// core.EpisodeGap is the same episode, raised once over both; after a
// longer dip it is an episode of its own.
func TestDipDoesNotSplitAnEpisode(t *testing.T) {
	db, _ := batchBaseline(t)
	const wait = 300_000 + 600_000 // a 300 ms peak's slice and grace
	for _, tc := range []struct {
		dip  int64
		want int
	}{{100_000, 1}, {150_000, 2}} {
		d, end := spikeDetector(t, db, DefaultGrace, 300*time.Millisecond)
		start := end - 50_000
		// Another 300 ms request departs in the bucket after the dip.
		end2 := end + tc.dip + 50_000
		d.eps.PIT.Observe(end2-40_000-300_000, end2-40_000)
		if tc.want == 1 {
			if alerts, _ := d.advance(end + wait); len(alerts) != 0 {
				t.Fatalf("dip %d µs: the first spike was raised alone", tc.dip)
			}
		}
		var alerts []Alert
		for _, low := range []int64{end + wait, end2 + wait} {
			got, err := d.advance(low)
			if err != nil {
				t.Fatal(err)
			}
			alerts = append(alerts, got...)
		}
		if len(alerts) != tc.want {
			t.Fatalf("dip %d µs: %d alerts, want %d", tc.dip, len(alerts), tc.want)
		}
		if w := alerts[0].Diagnosis.Window; tc.want == 1 && (w.StartMicros != start || w.EndMicros != end2 || alerts[0].DelayUS != wait) {
			t.Errorf("dip %d µs: alert over [%d, %d] after %d µs, want one over both spikes [%d, %d] after %d µs",
				tc.dip, w.StartMicros, w.EndMicros, alerts[0].DelayUS, start, end2, wait)
		}
	}
}

// TestAdvanceRaisesVLRTEpisodes: the detector, fed a trial bucket by
// bucket with the watermark following, raises online exactly the episodes
// the batch Diagnose finds in the same requests (the rule run to the end):
// two spikes 100 ms apart as one, two 150 ms apart as two, and a 3.7 s
// plateau with a 100 ms dip not at all.
func TestAdvanceRaisesVLRTEpisodes(t *testing.T) {
	db, _ := batchBaseline(t)
	d := newDetector(db, 50*time.Millisecond, DefaultGrace, 2*time.Millisecond)
	batch := core.Episodes{PIT: metrics.NewPIT(50 * time.Millisecond)}
	observe := func(ua, ud int64) {
		d.eps.PIT.Observe(ua, ud)
		batch.PIT.Observe(ua, ud)
	}
	epoch := simtime.Epoch.UnixMicro()
	slow := func(i int) bool {
		for _, sp := range [][2]int{{60, 61}, {64, 65}, {120, 121}, {125, 126}, {160, 195}, {198, 233}} {
			if i >= sp[0] && i <= sp[1] {
				return true
			}
		}
		return false
	}
	var alerts []Alert
	advance := func(lowUS int64) {
		got, err := d.advance(lowUS)
		if err != nil {
			t.Fatal(err)
		}
		alerts = append(alerts, got...)
	}
	for i := 0; i < 240; i++ {
		b := epoch + int64(i)*50_000
		for k := int64(1); k <= 10; k++ {
			observe(b+k*5_000-5_000, b+k*5_000-1)
		}
		if slow(i) {
			observe(b+10_000-300_000, b+10_000)
		}
		advance(b + 50_000)
	}
	advance(finalLow)
	want, _ := batch.Advance(math.MaxInt64)
	spike := func(from, to int) analysis.Window {
		return analysis.Window{StartMicros: epoch + int64(from)*50_000, EndMicros: epoch + int64(to+1)*50_000, Peak: 300_000}
	}
	if exp := []analysis.Window{spike(60, 65), spike(120, 121), spike(125, 126)}; !reflect.DeepEqual(want, exp) {
		t.Fatalf("the trial's episodes are %+v, want %+v", want, exp)
	}
	if len(alerts) != len(want) {
		t.Fatalf("%d alerts, want one per episode: %+v", len(alerts), want)
	}
	for i, a := range alerts {
		if a.Diagnosis.Window != want[i] || !online(a) {
			t.Errorf("alert %d over %+v (online %v), want %+v raised online", i+1, a.Diagnosis.Window, online(a), want[i])
		}
	}
}

// TestWindowWaitsForALaterEpisodeInItsSlice: a lead-in episode whose
// slice the next episode starts inside is raised with that one, when it is
// due; 300 ms later, past the slice, the next one does not hold it back.
func TestWindowWaitsForALaterEpisodeInItsSlice(t *testing.T) {
	db, _ := batchBaseline(t)
	epoch := simtime.Epoch.UnixMicro()
	for _, tc := range []struct {
		convoyAt    int64
		leadRaiseAt int64 // the lead-in's watermark, in µs into the trial
	}{
		{6_350_000, 7_850_000}, // the convoy's end 6.95 s + its 300 ms slice + 600 ms grace
		{6_650_000, 7_100_000}, // the lead-in's own end 6.2 s + 300 ms + 600 ms
	} {
		d := newDetector(db, 50*time.Millisecond, DefaultGrace, 2*time.Millisecond)
		slow := func(ud int64) bool {
			return ud >= 6_000_000 && ud < 6_200_000 || ud >= tc.convoyAt && ud < tc.convoyAt+600_000
		}
		var alerts []Alert
		for ud := int64(5_000); ud < 12_000_000; ud += 5_000 {
			rt := int64(5_000)
			if slow(ud) && ud%50_000 == 10_000 {
				rt = 300_000
			}
			d.eps.PIT.Observe(epoch+ud-rt, epoch+ud)
			if ud%50_000 == 0 {
				got, err := d.advance(epoch + ud)
				if err != nil {
					t.Fatal(err)
				}
				alerts = append(alerts, got...)
			}
		}
		if len(alerts) != 2 || alerts[0].Diagnosis.Window.EndMicros != epoch+6_200_000 {
			t.Fatalf("convoy at %v: %d alerts %+v, want the lead-in then the convoy", at(tc.convoyAt), len(alerts), alerts)
		}
		if got := alerts[0].WatermarkUS - epoch; got != tc.leadRaiseAt {
			t.Errorf("convoy at %v: the lead-in was raised at %v, want %v", at(tc.convoyAt), at(got), at(tc.leadRaiseAt))
		}
	}
}

// online reports whether the watermark, not the shutdown pass, raised a.
func online(a Alert) bool { return a.WatermarkUS != finalLow }

func at(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

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
	return p, end + 300_000 + 600_000
}

// frontOnlyDB is the dbio trial's front-tier access log ingested alone: no
// resource table.
func frontOnlyDB(t *testing.T) *mscopedb.DB {
	t.Helper()
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
	return db
}

// TestEvidenceNotThereYetIsNotAnError: with the front tier loaded and no
// resource table yet, a due window waits for the next pass in silence.
func TestEvidenceNotThereYetIsNotAnError(t *testing.T) {
	p, due := evidencePipeline(t, frontOnlyDB(t))
	p.detect(selfobs.NewBuf(), "advance", due)
	if st := p.Status(); st.EvidenceErrors != 0 || st.EvidenceError != "" || st.Alerts != 0 {
		t.Errorf("missing collectl tables: %d evidence errors (%q), %d alerts; want a silent retry",
			st.EvidenceErrors, st.EvidenceError, st.Alerts)
	}
	if len(p.det.pending) != 1 {
		t.Errorf("%d windows pending after a pass with no evidence to classify them, want the one", len(p.det.pending))
	}
}

// TestShutdownCountsUnclassifiedWindows: at shutdown no later pass will
// retry, so evidence still not there leaves the window unclassified, and
// that is counted, named on /status and counted on /metrics.
func TestShutdownCountsUnclassifiedWindows(t *testing.T) {
	p, _ := evidencePipeline(t, frontOnlyDB(t))
	p.detect(selfobs.NewBuf(), "final", finalLow)
	st := p.Status()
	if st.EvidenceErrors != 1 || st.Alerts != 0 {
		t.Fatalf("shutdown with no resource table: %d evidence errors, %d alerts; want the failure counted",
			st.EvidenceErrors, st.Alerts)
	}
	if !strings.Contains(st.EvidenceError, "shutdown left 1 VLRT windows unclassified") || !strings.Contains(st.EvidenceError, "no resource-monitor tables") {
		t.Errorf("/status says %q, want the unclassified window and why", st.EvidenceError)
	}
	if !strings.Contains(p.MetricsText(), "\nmscope_detector_evidence_errors_total 1\n") {
		t.Errorf("/metrics does not count the failed shutdown pass:\n%s", p.MetricsText())
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
	if len(p.det.pending) != 1 {
		t.Errorf("%d windows pending after passes whose evidence never built, want the one", len(p.det.pending))
	}
}
