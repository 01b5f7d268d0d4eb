package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// pitSeries is n 50 ms buckets from 0 of baseline, with height over each
// inclusive bucket range in spikes.
func pitSeries(n int, baseline, height float64, spikes ...[2]int) *mscopedb.Series {
	s := &mscopedb.Series{}
	for i := 0; i < n; i++ {
		v := baseline
		for _, sp := range spikes {
			if i >= sp[0] && i <= sp[1] {
				v = height
			}
		}
		s.StartMicros = append(s.StartMicros, int64(i)*edgeBucketUS)
		s.Values = append(s.Values, v)
	}
	return s
}

// observeSeries folds one request per bucket of s into a fresh Episodes,
// resident the bucket's value and departing mid-bucket.
func observeSeries(s *mscopedb.Series) *Episodes {
	e := &Episodes{PIT: metrics.NewPIT(edgeBucketUS * time.Microsecond)}
	for i, b := range s.StartMicros {
		ud := b + edgeBucketUS/2
		e.PIT.Observe(ud-int64(s.Values[i]), ud)
	}
	return e
}

// episodesOf is the rule over s run to the end, as the batch Diagnose
// runs it.
func episodesOf(s *mscopedb.Series) []analysis.Window {
	eps, _ := observeSeries(s).Advance(math.MaxInt64)
	return eps
}

// TestVLRTEpisodes: a bucket is never flagged with no request before it;
// a dip of at most episodeGap is inside the episode, a longer one ends it;
// a merged episode peaks at the higher part; and one longer than
// maxVSBDuration is dropped whole, not kept as its pieces. The threshold
// and trailing-run cases are in internal/analysis's episode_test.go.
func TestVLRTEpisodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		pit  *mscopedb.Series
		want []analysis.Window
	}{
		{"a 100 ms dip merges, the peak is the higher part's",
			func() *mscopedb.Series {
				s := pitSeries(60, 5_000, 500_000, [2]int{20, 21}, [2]int{24, 25})
				s.Values[25] = 800_000
				return s
			}(),
			[]analysis.Window{{StartMicros: 1_000_000, EndMicros: 1_300_000, Peak: 800_000}}},
		{"a 150 ms dip splits",
			pitSeries(60, 5_000, 500_000, [2]int{20, 21}, [2]int{25, 26}),
			[]analysis.Window{
				{StartMicros: 1_000_000, EndMicros: 1_100_000, Peak: 500_000},
				{StartMicros: 1_250_000, EndMicros: 1_350_000, Peak: 500_000}}},
		{"two 1.8 s pieces 100 ms apart are one 3.7 s plateau, dropped",
			pitSeries(100, 5_000, 500_000, [2]int{10, 45}, [2]int{48, 83}),
			nil},
		{"the same pieces 150 ms apart are two episodes",
			pitSeries(100, 5_000, 500_000, [2]int{10, 45}, [2]int{49, 84}),
			[]analysis.Window{
				{StartMicros: 500_000, EndMicros: 2_300_000, Peak: 500_000},
				{StartMicros: 2_450_000, EndMicros: 4_250_000, Peak: 500_000}}},
		{"nothing before the first bucket: never flagged",
			pitSeries(20, 5_000, 500_000, [2]int{0, 0}),
			nil},
		{"a kept episode stays out of the baseline",
			pitSeries(60, 5_000, 60_000, [2]int{10, 11}, [2]int{40, 40}),
			[]analysis.Window{
				{StartMicros: 500_000, EndMicros: 600_000, Peak: 60_000},
				{StartMicros: 2_000_000, EndMicros: 2_050_000, Peak: 60_000}}},
	} {
		if got := episodesOf(tc.pit); (len(got) > 0 || len(tc.want) > 0) && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestEpisodesAreFinalOnce: advanced one closed bucket at a time, the rule
// returns what it returns run to the end, each episode once, in order,
// never before episodeGap has closed behind it, and one running to the
// last bucket only at the end.
func TestEpisodesAreFinalOnce(t *testing.T) {
	s := pitSeries(200, 5_000, 500_000, [2]int{20, 21}, [2]int{24, 25}, [2]int{60, 61},
		[2]int{120, 150}, [2]int{198, 199})
	want := episodesOf(s)
	if len(want) != 4 {
		t.Fatalf("%d episodes run to the end, want 4: %+v", len(want), want)
	}
	e := observeSeries(s)
	var got []analysis.Window
	for _, b := range s.StartMicros {
		settled, _ := e.Advance(b)
		for _, w := range settled {
			if b < w.EndMicros+episodeGap.Microseconds() {
				t.Errorf("%+v returned with bucket %d closed, before its gap", w, b)
			}
			got = append(got, w)
		}
	}
	last, _ := e.Advance(math.MaxInt64)
	if got = append(got, last...); !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket by bucket %+v, run to the end %+v", got, want)
	}
}

// TestLoadStepBecomesTheBaseline: a load step ten times the old response
// time is flagged until it outgrows maxVSBDuration, then dropped; its
// requests rejoin the baseline, so the new level is not flagged again and
// a very short bottleneck on top of it is.
func TestLoadStepBecomesTheBaseline(t *testing.T) {
	e := &Episodes{PIT: metrics.NewPIT(edgeBucketUS * time.Microsecond)}
	const stepAt, vsbAt, vsbEnd, end = 20_000_000, 30_000_000, 30_300_000, 40_000_000
	for ud := int64(5_000); ud < end; ud += 5_000 {
		rt := int64(5_000)
		switch {
		case ud >= vsbAt && ud < vsbEnd:
			rt = 2_000_000
		case ud >= stepAt:
			rt = 60_000
		}
		e.PIT.Observe(ud-rt, ud)
	}
	var got []analysis.Window
	for b := int64(0); b <= end; b += edgeBucketUS {
		settled, _ := e.Advance(b)
		got = append(got, settled...)
	}
	want := []analysis.Window{{StartMicros: vsbAt, EndMicros: vsbEnd, Peak: 2_000_000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("episodes %+v, want only the VSB on the new level %+v", got, want)
	}
}

// TestAdvanceReportsTheOpenEpisode: Advance returns, besides the episodes
// it settles, where the one still open starts while it may be kept, and
// math.MaxInt64 once it has outgrown maxVSBDuration.
func TestAdvanceReportsTheOpenEpisode(t *testing.T) {
	e := observeSeries(pitSeries(200, 5_000, 300_000, [2]int{20, 23}, [2]int{27, 38}, [2]int{100, 170}))
	settled, openFrom := e.Advance(30 * edgeBucketUS)
	lead := analysis.Window{StartMicros: 1_000_000, EndMicros: 1_200_000, Peak: 300_000}
	if !reflect.DeepEqual(settled, []analysis.Window{lead}) || openFrom != 1_350_000 {
		t.Fatalf("settled %+v, open from %d: want the lead-in settled and the convoy open", settled, openFrom)
	}
	if settled, openFrom = e.Advance(130 * edgeBucketUS); len(settled) != 1 || openFrom != 5_000_000 {
		t.Fatalf("settled %+v, open from %d: want the convoy settled and the plateau open", settled, openFrom)
	}
	if _, openFrom = e.Advance(165 * edgeBucketUS); openFrom != math.MaxInt64 {
		t.Fatalf("open from %d past maxVSBDuration, want none", openFrom)
	}
}

// TestClassifyTrailingSlice: past the window's end ClassifyWindow reads
// only as far as the window's own Peak. A gauge that moves after that
// changes nothing; the same move inside the slice changes the ranking.
func TestClassifyTrailingSlice(t *testing.T) {
	w := analysis.Window{StartMicros: 1_000_000, EndMicros: 1_100_000, Peak: 300_000}
	if lo, hi := ClassifySlice(w); lo != 0 || hi != 1_400_000 {
		t.Fatalf("slice [%d, %d], want [0, 1400000]", lo, hi)
	}
	disk := func(moved ...[2]int) ResourceCandidate {
		s := synthSeries(spikeAt(5, 100, 18, 25))
		for _, m := range moved {
			for i := m[0]; i <= m[1]; i++ {
				s.Values[i] = 90
			}
		}
		return ResourceCandidate{Name: "mysql disk", Tier: "mysql", Kind: CauseDiskIO, Series: s}
	}
	classify := func(c ResourceCandidate) WindowDiagnosis {
		return ClassifyWindow(&Evidence{
			Queues:     map[string]*mscopedb.Series{"apache": synthSeries(spikeAt(3, 60, 18, 25))},
			Candidates: []ResourceCandidate{c},
		}, w)
	}
	base := classify(disk())
	if base.Kind != CauseDiskIO || base.Node != "mysql" {
		t.Fatalf("baseline classified %s@%s (%s), want disk-io@mysql", base.Kind, base.Node, base.Verdict)
	}
	// Buckets 29–40 start 1.45–2.0 s: past end + Peak, inside end + pad.
	if after := classify(disk([2]int{29, 40})); !reflect.DeepEqual(after, base) {
		t.Errorf("a move after end + Peak changed the diagnosis:\n%+v\nwant\n%+v", after, base)
	}
	// Buckets 26–28 start 1.3–1.4 s: inside the trailing slice.
	if inside := classify(disk([2]int{26, 28})); reflect.DeepEqual(inside.Causes, base.Causes) {
		t.Errorf("a move inside the trailing slice left the ranking at %+v", inside.Causes)
	}
}
