package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// eventTable builds a front-tier event table with (ua, ud) pairs in µs.
func eventTable(t *testing.T, spans [][2]int64) *mscopedb.Table {
	t.Helper()
	tbl, err := mscopedb.NewTable("apache_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ua", Type: mscopedb.TInt},
		{Name: "ud", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range spans {
		if err := tbl.Append("req-"+string(rune('a'+i%26)), s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestPointInTimeRT(t *testing.T) {
	// Three fast requests and one 100ms outlier completing at 70ms.
	tbl := eventTable(t, [][2]int64{
		{0, 5_000},
		{10_000, 17_000},
		{60_000, 65_000},
		{-30_000, 70_000}, // 100ms request
	})
	p, err := PointInTimeRT(tbl, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	pit := p.Result(math.MinInt64, math.MaxInt64)
	if pit.Requests != 4 {
		t.Fatalf("requests %d", pit.Requests)
	}
	if pit.MaxUS != 100_000 {
		t.Fatalf("max %v", pit.MaxUS)
	}
	// Windows (by completion): [0,50ms): max 7000; [50ms,100ms): max 100000.
	if len(pit.Series.Values) != 2 {
		t.Fatalf("windows %d: %+v", len(pit.Series.Values), pit.Series)
	}
	if pit.Series.Values[0] != 7_000 || pit.Series.Values[1] != 100_000 {
		t.Fatalf("series %+v", pit.Series.Values)
	}
	if pf := pit.PeakFactor(); pf < 3 || pf > 4 {
		t.Fatalf("peak factor %v", pf) // 100000 / ((5000+7000+5000+100000)/4) ≈ 3.4
	}
}

func TestPointInTimeRTEmpty(t *testing.T) {
	tbl := eventTable(t, nil)
	if _, err := PointInTimeRT(tbl, time.Millisecond); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestQueueSeries(t *testing.T) {
	// Two overlapping residencies and one later.
	tbl := eventTable(t, [][2]int64{
		{0, 100_000},
		{40_000, 60_000},
		{200_000, 220_000},
	})
	pts, err := QueueSeries(tbl, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	at := func(us int64) int {
		for _, p := range pts {
			if p.AtMicros == us {
				return p.N
			}
		}
		t.Fatalf("no point at %d", us)
		return -1
	}
	if at(0) != 1 || at(50_000) != 2 || at(80_000) != 1 || at(100_000) != 0 || at(210_000) != 1 {
		t.Fatalf("queue series wrong: %+v", pts)
	}
	// Never negative.
	for _, p := range pts {
		if p.N < 0 {
			t.Fatalf("negative queue at %d", p.AtMicros)
		}
	}
}

func TestQueueSeriesEmpty(t *testing.T) {
	tbl := eventTable(t, nil)
	pts, err := QueueSeries(tbl, time.Millisecond)
	if err != nil || pts != nil {
		t.Fatalf("empty: %v %v", pts, err)
	}
}

// Property: queue series over random spans is never negative and ends at
// zero after all departures.
func TestQueueSeriesInvariantProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var spans [][2]int64
		for i := 0; i+1 < len(raw); i += 2 {
			ua := int64(raw[i])
			ud := ua + int64(raw[i+1]) + 1
			spans = append(spans, [2]int64{ua, ud})
		}
		tbl, err := mscopedb.NewTable("e", []mscopedb.Column{
			{Name: "ua", Type: mscopedb.TInt},
			{Name: "ud", Type: mscopedb.TInt},
		})
		if err != nil {
			return false
		}
		for _, s := range spans {
			if err := tbl.Append(s[0], s[1]); err != nil {
				return false
			}
		}
		pts, err := QueueSeries(tbl, 100*time.Microsecond)
		if err != nil {
			return false
		}
		for _, p := range pts {
			if p.N < 0 {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].N == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLittlesLawConsistent(t *testing.T) {
	// A deterministic M/D/∞-ish table: 1000 requests arriving every 1ms,
	// each resident 5ms → λ=1000/s (over span), W=5ms, L=λW≈5.
	var spans [][2]int64
	for i := int64(0); i < 1000; i++ {
		spans = append(spans, [2]int64{i * 1000, i*1000 + 5000})
	}
	tbl := eventTable(t, spans)
	rep, err := LittlesLaw(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanResidence != 5*time.Millisecond {
		t.Fatalf("W = %v", rep.MeanResidence)
	}
	if rep.RelativeError > 0.01 {
		t.Fatalf("self-consistent table has relative error %.4f", rep.RelativeError)
	}
	if rep.MeanQueue < 4.5 || rep.MeanQueue > 5.5 {
		t.Fatalf("L = %v, want ~5", rep.MeanQueue)
	}
}

func TestLittlesLawEmpty(t *testing.T) {
	tbl := eventTable(t, nil)
	if _, err := LittlesLaw(tbl); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestPointsToSeries(t *testing.T) {
	s := PointsToSeries([]Point{{AtMicros: 10, N: 3}, {AtMicros: 20, N: 5}})
	if len(s.StartMicros) != 2 || s.Values[1] != 5 {
		t.Fatalf("series %+v", s)
	}
}

// queuePointsByEvents is the event sweep QueueSeries used to be: one +1 /
// -1 event per row, sorted by instant with arrivals before departures,
// swept at every step. Kept as the oracle of the two-sorted-columns form.
func queuePointsByEvents(spans [][2]int64, stepUS int64) []Point {
	type ev struct {
		at int64
		d  int
	}
	var evs []ev
	for _, s := range spans {
		evs = append(evs, ev{s[0], +1}, ev{s[1], -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d > evs[j].d
	})
	lo, hi := evs[0].at, evs[len(evs)-1].at
	lo -= mod(lo, stepUS)
	var out []Point
	cur, k := 0, 0
	emit := func(at int64) {
		for k < len(evs) && evs[k].at <= at {
			cur += evs[k].d
			k++
		}
		out = append(out, Point{AtMicros: at, N: cur})
	}
	at := lo
	for ; at <= hi; at += stepUS {
		emit(at)
	}
	if at-stepUS != hi {
		emit(hi)
	}
	return out
}

// TestQueueSeriesMatchesEventSweep: arrivals and departures that share an
// instant — with each other and with a sample — give the series the event
// sweep gave, on random spans too.
func TestQueueSeriesMatchesEventSweep(t *testing.T) {
	cases := [][][2]int64{
		{{0, 100}, {100, 200}, {100, 100}, {50, 100}, {200, 350}},
		{{-70, -70}, {-70, 30}, {30, 30}},
		{{5, 5}},
	}
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 50; c++ {
		var spans [][2]int64
		for i := 0; i < 1+rng.Intn(40); i++ {
			ua := int64(rng.Intn(2000)) - 500
			spans = append(spans, [2]int64{ua, ua + int64(rng.Intn(5))*50})
		}
		cases = append(cases, spans)
	}
	for _, spans := range cases {
		got, err := QueueSeries(eventTable(t, spans), 50*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if want := queuePointsByEvents(spans, 50); !reflect.DeepEqual(got, want) {
			t.Fatalf("spans %v:\n got %v\nwant %v", spans, got, want)
		}
	}
}

// queuePointsBySorting is Queue.Points as it was before the counts: both
// stamp columns sorted, then swept at every step. Kept as the oracle of
// the counted form.
func queuePointsBySorting(ua, ud []int64, stepUS int64) []Point {
	n := len(ua)
	if n == 0 {
		return nil
	}
	ua, ud = slices.Clone(ua), slices.Clone(ud)
	slices.Sort(ua)
	slices.Sort(ud)
	lo, hi := min(ua[0], ud[0]), max(ua[n-1], ud[n-1])
	lo -= mod(lo, stepUS)
	var out []Point
	i, j := 0, 0
	emit := func(at int64) {
		for i < n && ua[i] <= at {
			i++
		}
		for j < n && ud[j] <= at {
			j++
		}
		out = append(out, Point{AtMicros: at, N: i - j})
	}
	at := lo
	for ; at <= hi; at += stepUS {
		emit(at)
	}
	if at-stepUS != hi {
		emit(hi)
	}
	return out
}

// TestQueueCountsMatchSorting: the counted queue samples what sorting the
// stamps sampled, after every chunk it is given — instants shared by
// several rows, rows that arrive and leave at once, a step that does not
// divide the span, and chunks earlier than the ones already folded.
func TestQueueCountsMatchSorting(t *testing.T) {
	cases := []struct {
		name   string
		stepUS int64
		chunks [][][2]int64 // (ua, ud) rows, one slice per Add
	}{
		{"duplicate instants", 50, [][][2]int64{{{100, 200}, {100, 200}, {150, 200}, {200, 250}}}},
		{"ua == ud", 50, [][][2]int64{{{100, 100}, {150, 150}, {150, 160}}, {{160, 160}}}},
		{"step does not divide the span", 30, [][][2]int64{{{7, 95}, {40, 41}}, {{41, 101}}}},
		{"negative instants", 40, [][][2]int64{{{-130, -5}, {-5, 0}}, {{-200, -130}}}},
		{"earlier chunks", 50, [][][2]int64{
			{{10_000, 10_400}, {10_100, 10_120}},
			{{9_000, 9_700}, {9_650, 10_050}},
			{{100, 200}},
			{{10_450, 10_500}, {150, 10_450}},
		}},
	}
	for _, c := range cases {
		q := NewQueue(time.Duration(c.stepUS) * time.Microsecond)
		var ua, ud []int64
		for k, chunk := range c.chunks {
			var cu, cd []int64
			for _, r := range chunk {
				cu, cd = append(cu, r[0]), append(cd, r[1])
			}
			q.Add(cu, cd)
			ua, ud = append(ua, cu...), append(ud, cd...)
			got, err := q.Points()
			if err != nil {
				t.Fatal(err)
			}
			if want := queuePointsBySorting(ua, ud, c.stepUS); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, after chunk %d:\n got %v\nwant %v", c.name, k, got, want)
			}
		}
	}
}

// TestSubMicrosecondStepRejected: a step below the warehouse's resolution
// used to loop forever on at += 0.
func TestSubMicrosecondStepRejected(t *testing.T) {
	tbl := eventTable(t, [][2]int64{{0, 10}})
	if _, err := QueueSeries(tbl, time.Nanosecond); err == nil {
		t.Fatal("1ns step accepted")
	}
	if _, err := PointInTimeRT(tbl, 999*time.Nanosecond); err == nil {
		t.Fatal("999ns window accepted")
	}
}

// TestPITObserveMatchesChunkedScan: folding rows one at a time through a
// PIT gives the series, mean and maximum PointInTimeRT reads off a
// store-backed table chunk by chunk — gaps of empty buckets, departures
// out of order and a negative response time included.
func TestPITObserveMatchesChunkedScan(t *testing.T) {
	db, err := mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Create("apache_event", []mscopedb.Column{
		{Name: "ua", Type: mscopedb.TInt}, {Name: "ud", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 1_491_004_800_000_000
	live := NewPIT(50 * time.Millisecond)
	for i := range int64(1000) {
		ud := epoch + i*3_000
		if i%200 >= 150 {
			ud += 400_000 // a run of buckets left empty before these
		}
		if i%97 == 0 {
			ud -= 120_000 // departs before rows already seen
		}
		ua := ud - 1_000 - (i*7919)%40_000
		if i == 500 {
			ua = ud + 5 // clock skew: negative response time
		}
		if err := tbl.Append(ua, ud); err != nil {
			t.Fatal(err)
		}
		live.Observe(ua, ud)
	}
	chunks := 0
	if err := tbl.Scan([]string{"ua"}, func(*mscopedb.Chunk) error { chunks++; return nil }); err != nil {
		t.Fatal(err)
	}
	if chunks < 10 {
		t.Fatalf("%d chunks: the scan is not chunked", chunks)
	}
	scanned, err := PointInTimeRT(tbl, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	batch := scanned.Result(math.MinInt64, math.MaxInt64)
	got := live.Result(math.MinInt64, math.MaxInt64)
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("per-row %+v\nscan %+v", got, batch)
	}
	empty := 0
	for _, v := range batch.Series.Values {
		if v == 0 {
			empty++
		}
	}
	if empty == 0 || batch.Requests != 1000 || batch.MaxUS <= batch.AvgUS {
		t.Fatalf("fixture lacks empty buckets or spread: %d empty, %+v", empty, batch)
	}
	// A prefix stops at the last bucket starting at or before its bound.
	s := batch.Series
	prefix := live.Result(math.MinInt64, s.StartMicros[10]+1).Series
	if !reflect.DeepEqual(prefix.StartMicros, s.StartMicros[:11]) || !reflect.DeepEqual(prefix.Values, s.Values[:11]) {
		t.Fatalf("prefix %+v, want the first 11 buckets of %+v", prefix, s)
	}
}

// TestGridsRefuseMoreThanTheCap pins the cap on the two dense series: a
// 1 µs grid over a little more than mscopedb.MaxGridBuckets µs is an error
// naming the cap, not millions of rows.
func TestGridsRefuseMoreThanTheCap(t *testing.T) {
	end := int64(mscopedb.MaxGridBuckets) + 100_000 // ~4.3 s
	tbl := eventTable(t, [][2]int64{{0, 0}, {end, end}})
	if _, err := PointInTimeRT(tbl, time.Microsecond); err == nil || !strings.Contains(err.Error(), "grid of more than") {
		t.Fatalf("PointInTimeRT over %d 1us windows: err %v", end, err)
	}
	if _, err := QueueSeries(tbl, time.Microsecond); err == nil || !strings.Contains(err.Error(), "grid of more than") {
		t.Fatalf("QueueSeries over %d 1us steps: err %v", end, err)
	}
	// The same span at 50 ms is 87 windows.
	if _, err := PointInTimeRT(tbl, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := QueueSeries(tbl, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestPITCloseToHandsEachWindowOnce: CloseTo hands out the windows from
// the first observed in order, gaps included, each once, never past the
// last observed; a request observed into a window already handed out
// reaches Result only. Result over a range keeps the windows starting in
// it.
func TestPITCloseToHandsEachWindowOnce(t *testing.T) {
	p := NewPIT(50 * time.Millisecond)
	for _, r := range [][2]int64{{60_000, 70_000}, {50_000, 90_000}, {200_000, 210_000}, {150_000, 260_000}} {
		p.Observe(r[0], r[1])
	}
	type win struct {
		start, end int64
		max, sum   float64
		n          int
	}
	var got []win
	closeTo := func(hi int64) {
		p.CloseTo(hi, func(start, end int64, max, sum float64, n int) {
			got = append(got, win{start, end, max, sum, n})
		})
	}
	closeTo(100_000)
	p.Observe(40_000, 99_000) // late, into a window handed out
	closeTo(100_000)
	closeTo(math.MaxInt64)
	want := []win{
		{50_000, 100_000, 40_000, 50_000, 2},
		{100_000, 150_000, 0, 0, 0},
		{150_000, 200_000, 0, 0, 0},
		{200_000, 250_000, 10_000, 10_000, 1},
		{250_000, 300_000, 110_000, 110_000, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handed out %+v, want %+v", got, want)
	}
	r := p.Result(60_000, 200_000)
	if !reflect.DeepEqual(r.Series.StartMicros, []int64{100_000, 150_000, 200_000}) ||
		!reflect.DeepEqual(r.Series.Values, []float64{0, 0, 10_000}) || r.Requests != 5 || r.MaxUS != 110_000 {
		t.Fatalf("Result over [60ms, 200ms]: %+v %+v", r, r.Series)
	}
	if first := p.Result(math.MinInt64, 50_000).Series.Values; !reflect.DeepEqual(first, []float64{59_000}) {
		t.Fatalf("the late request is not in Result: %v", first)
	}
}
