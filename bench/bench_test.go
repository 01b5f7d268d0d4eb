package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/stream"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(ten); !near(m, 5.5) {
		t.Errorf("median(1..10) = %v", m)
	}
	if q1, q3 := quartiles([]float64{4, 3, 2, 1}); !near(q1, 1.25) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %v, %v; want 1.25, 3.75", q1, q3)
	}
	if q1, q3 := quartiles([]float64{5}); q1 != 5 || q3 != 5 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if s := spread(ten); !near(s, 1) {
		t.Errorf("spread(1..10) = %v; want (8.25-2.75)/5.5", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {20, 75, false}, {100, 90, true}, {199, 95, false},
		{200, 95, true}, {800, 95, true}, {800, 99, false}, {1000, 99, true}, {10000, 99.9, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	few := make([]float64, 199)
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(i + 1)
		if i < len(few) {
			few[i] = float64(i + 1)
		}
	}
	if got := p95OrMedian(few); got != 100 {
		t.Errorf("199 samples: got %v, want the median 100", got)
	}
	if got := p95OrMedian(many); got != 190 {
		t.Errorf("200 samples: got %v, want the p95 190", got)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{Start: start, Wall: 95 * time.Millisecond, Sim: 95 * time.Millisecond, Tick: 10 * time.Millisecond}
	if s.ticks() != 10 {
		t.Fatalf("ticks = %d, want 10 (the last, short one completes the files)", s.ticks())
	}
	if got := s.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got.Sub(start))
	}
	if got := s.due(10); !got.Equal(start.Add(95 * time.Millisecond)) {
		t.Errorf("due(10) = %v, want the end of the schedule", got.Sub(start))
	}
	if f := s.frac(10); f != 1 {
		t.Errorf("frac(last) = %v, want 1", f)
	}
	if f := s.frac(1); !near(f, 10.0/95) {
		t.Errorf("frac(1) = %v", f)
	}
	// At 1x an event 40 ms into the trial is due 40 ms into the replay; at
	// 4x (Sim four times Wall) it is due after 10 ms.
	if got := s.dueOfEvent(40 * time.Millisecond); !got.Equal(start.Add(40 * time.Millisecond)) {
		t.Errorf("dueOfEvent at 1x = %v", got.Sub(start))
	}
	fast := schedule{Start: start, Wall: time.Second, Sim: 4 * time.Second, Tick: 10 * time.Millisecond}
	if got := fast.dueOfEvent(40 * time.Millisecond); !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("dueOfEvent at 4x = %v", got.Sub(start))
	}
	// Lateness counts from the due time and is never negative.
	if l := lateness(start.Add(13*time.Millisecond), start.Add(10*time.Millisecond)); l != 3*time.Millisecond {
		t.Errorf("lateness = %v", l)
	}
	if l := lateness(start, start.Add(time.Millisecond)); l != 0 {
		t.Errorf("an early write is %v late", l)
	}
}

func TestPacerReplaysEveryByteOnSchedule(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "live")
	want := bytes.Repeat([]byte("127.0.0.1 - - line\n"), 500)
	if err := os.WriteFile(filepath.Join(src, "apache_access.log"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "apache_sar.xml"), []byte("<not streamed/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	pc, err := newPacer(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule{Start: time.Now(), Wall: 50 * time.Millisecond, Sim: 50 * time.Millisecond, Tick: 5 * time.Millisecond}
	late, err := pc.run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != s.ticks() {
		t.Errorf("lateness of %d writes, schedule has %d", len(late), s.ticks())
	}
	if elapsed := time.Since(s.Start); elapsed < s.Wall {
		t.Errorf("replay took %v, schedule is %v long", elapsed, s.Wall)
	}
	got, err := os.ReadFile(filepath.Join(dst, "apache_access.log"))
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("replayed %d bytes (err %v), want %d identical", len(got), err, len(want))
	}
	if _, err := os.Stat(filepath.Join(dst, "apache_sar.xml")); !os.IsNotExist(err) {
		t.Errorf("a file the pipeline does not tail was replayed")
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps child 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent's end
		{ID: 5, Parent: 2, Start: 15, End: 25},  // grandchild: not the root's child
		{ID: 6, Parent: 0, Start: 200, End: 250},
	}
	self := selfTimes(spans)
	// Root 1: 100 - |[10,60) U [90,100)| = 100 - 60 = 40.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	r.do("outer", func() {
		r.do("inner", func() {})
		r.do("inner", func() {})
	})
	r.do("next", func() {})
	if len(r.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(r.spans))
	}
	if r.spans[1].Parent != r.spans[0].ID || r.spans[2].Parent != r.spans[0].ID || r.spans[3].Parent != 0 {
		t.Errorf("parents wrong: %+v", r.spans)
	}
	if r.spans[0].Start > r.spans[1].Start || r.spans[0].End < r.spans[2].End {
		t.Errorf("outer does not contain inner: %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Contains(data, []byte(`"self_ns_by_name"`)) {
		t.Errorf("trace.json: %v", err)
	}
}

func digestFixture(t *testing.T, last string) *mscopedb.Table {
	t.Helper()
	tbl, err := mscopedb.NewTable("t", []mscopedb.Column{
		{Name: "n", Type: mscopedb.TInt}, {Name: "f", Type: mscopedb.TFloat},
		{Name: "ts", Type: mscopedb.TTime}, {Name: "s", Type: mscopedb.TString}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{
		{int64(1), 0.5, time.UnixMicro(1491004800000001).UTC(), "a"},
		{int64(-2), math.Inf(1), time.UnixMicro(1491004800000002).UTC(), last},
	} {
		if err := tbl.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// The digest must not change from run to run or machine to machine: the
// constant below was computed once and is part of the contract.
func TestDigestStable(t *testing.T) {
	a, b := digestTable(digestFixture(t, "b")), digestTable(digestFixture(t, "b"))
	if a != b {
		t.Errorf("same table, different digests: %x %x", a.Digest, b.Digest)
	}
	if a.Rows != 2 {
		t.Errorf("rows = %d", a.Rows)
	}
	const want = uint64(0xbc13312d7097d192)
	if a.Digest != want {
		t.Errorf("digest = %#x, want %#x (FNV-1a over schema and cells)", a.Digest, want)
	}
	if c := digestTable(digestFixture(t, "c")); c.Digest == a.Digest {
		t.Errorf("one changed cell left the digest unchanged")
	}
}

func window(kind core.CauseKind, node string, endUS int64) core.WindowDiagnosis {
	return core.WindowDiagnosis{Kind: kind, Node: node,
		Window: analysis.Window{StartMicros: endUS - 50_000, EndMicros: endUS}}
}

func TestMatchAlertsMissingAndSpurious(t *testing.T) {
	kinds := core.CauseKinds()
	want := []core.WindowDiagnosis{window(kinds[0], "mysql", 1_000_000), window(kinds[0], "mysql", 3_000_000)}
	got := []stream.Alert{
		{Diagnosis: window(kinds[0], "mysql", 1_050_000)},  // within one window of the first
		{Diagnosis: window(kinds[0], "apache", 3_000_000)}, // right time, wrong node
		{Diagnosis: window(kinds[1], "mysql", 3_000_000)},  // right time, wrong kind
		{Diagnosis: window(kinds[0], "mysql", 3_060_000)},  // more than a window late
	}
	matched, spurious := matchAlerts(want, got, 50_000)
	if matched[0] != 0 || matched[1] != -1 {
		t.Errorf("matched = %v, want [0 -1]", matched)
	}
	if len(spurious) != 3 {
		t.Errorf("spurious = %v, want the three unmatched alerts", spurious)
	}
}

func TestTallyCountsEveryCheck(t *testing.T) {
	var tl tally
	tl.check(true, "fine")
	tl.check(false, "table %s differs", "x")
	tl.fail("spurious")
	if tl.Attempted != 2 || tl.Failed != 2 || len(tl.Notes) != 2 {
		t.Errorf("tally = %+v", tl)
	}
}

func TestJudge(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 0.995, m * 1.005} }
	if w, v := judge(steady(100), steady(104), lower, 0.10); v != vOK || !near(math.Round(w*100), 4) {
		t.Errorf("4%% worse under a 10%% bound: %v %v", w, v)
	}
	if _, v := judge(steady(100), steady(115), lower, 0.10); v != vRegressed {
		t.Errorf("15%% worse under a 10%% bound: %v", v)
	}
	if _, v := judge(steady(100), steady(80), higher, 0.10); v != vRegressed {
		t.Errorf("throughput down 20%%: %v", v)
	}
	if w, v := judge(steady(100), steady(80), lower, 0.10); v != vOK || w >= 0 {
		t.Errorf("latency down 20%%: %v %v", w, v)
	}
	noisy := []float64{60, 80, 100, 120, 140, 160}
	if _, v := judge(noisy, steady(100), lower, 0.10); v != vUnresolved {
		t.Errorf("a base whose spread exceeds the bound: %v", v)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units and directions, within the contract's limits.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Command) < 2 || spec.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}

	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, harness emits %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		unit, emitted := endToEndUnits[m.Name]
		if !emitted || unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: harness emits %v [%s]", m.Name, m.Unit, emitted, unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Errorf("no setup_s [s, lower] among the end-to-end metrics")
	}

	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, harness emits %d (limit 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		unique(m.Name)
		if i >= len(perLayer) {
			break
		}
		if h := perLayer[i]; h.Name != m.Name || h.Unit != m.Unit || h.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness has %s [%s, %s]", i, m, h.Name, h.Unit, h.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q", m.Name, m.Unit)
		}
	}
}

// The smoke run: tiny corpora, one repetition, every workload and the
// traced run. Every metric either file names must come out, every check
// must pass, and the numbers go nowhere.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	root := t.TempDir()
	p := params{seed: 17, seconds: 1, quick: true}
	for _, name := range workloadNames {
		out, err := runWorkload(name, p, root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Attempted == 0 || out.Failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, out.Failed, out.Attempted, out.Notes)
		}
		if len(out.Metrics) != len(endToEndUnits) {
			t.Errorf("%s: %d metrics, want %d", name, len(out.Metrics), len(endToEndUnits))
		}
		for m, unit := range endToEndUnits {
			if s, ok := out.Metrics[m]; !ok || s.Unit != unit || !(s.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v): every end-to-end metric must be a positive number", name, m, s, ok)
			}
		}
	}
	if _, err := runWorkload("no-such-workload", p, root); err == nil {
		t.Errorf("an unknown workload ran")
	}

	outDir := filepath.Join(root, "out")
	vals, checks, err := runLedger(p, filepath.Join(root, "ledger"), outDir)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if checks.Attempted == 0 || checks.Failed != 0 {
		t.Errorf("traced run: %d of %d checks failed: %v", checks.Failed, checks.Attempted, checks.Notes)
	}
	if len(vals) != len(perLayer) {
		t.Errorf("traced run set %d metrics, BENCHMARK.json names %d", len(vals), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := vals[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("traced run: metric %s = %v (present %v)", m.Name, v, ok)
		}
	}
	if info, err := os.Stat(filepath.Join(outDir, "trace.json")); err != nil || info.Size() == 0 {
		t.Errorf("trace.json: %v", err)
	}
}

func TestSpeedometerAndReferenceSpeed(t *testing.T) {
	var none *speedometer
	none.probe()
	if s := none.slowness(); s != 1 {
		t.Errorf("no speedometer: slowness %v, want 1", s)
	}
	sp := &speedometer{samples: []float64{ns(kernelRef), 2 * ns(kernelRef), 3 * ns(kernelRef)}}
	if s := sp.slowness(); !near(s, 2) {
		t.Errorf("slowness = %v, want the median probe over the reference, 2", s)
	}
	live := &speedometer{}
	live.probe()
	if len(live.samples) != probesPerStop || live.spent <= 0 || live.mallocs == 0 {
		t.Errorf("probe recorded %d samples, %v spent, %d mallocs", len(live.samples), live.spent, live.mallocs)
	}

	// A machine twice as slow measures half the throughput and twice the
	// latency; at reference speed both are restored, and the raw values kept.
	out := newRunOut()
	out.Metrics[mThroughput] = summary{Value: 50, Q1: 40, Q3: 60}
	out.Metrics[mLatP50] = summary{Value: 20, Q1: 18, Q3: 22}
	out.Metrics[mLatP95] = summary{Value: 80}
	out.atReferenceSpeed(2, true)
	if s := out.Metrics[mThroughput]; s.Value != 100 || s.Q1 != 80 || s.Q3 != 120 {
		t.Errorf("throughput at reference speed = %+v", s)
	}
	if out.Metrics[mLatP50].Value != 10 || out.Metrics[mLatP95].Value != 40 || out.Info["raw_latency_ms_p50"] != 20 {
		t.Errorf("latency at reference speed = %+v, info %v", out.Metrics, out.Info)
	}
	out.atReferenceSpeed(2, false)
	if out.Metrics[mLatP50].Value != 10 {
		t.Errorf("a latency that is waiting was rescaled: %+v", out.Metrics[mLatP50])
	}
}
