package core

import (
	"reflect"
	"testing"

	"github.com/gt-elba/milliscope/internal/analysis"
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

// TestVLRTEpisodes: a dip of at most EpisodeGap is inside the episode, a
// longer one ends it; a merged episode peaks at the higher part; and one
// longer than MaxVSBDuration is dropped whole, not kept as its pieces.
func TestVLRTEpisodes(t *testing.T) {
	const avg = 10_000 // threshold 100 ms
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
	} {
		if got := VLRTEpisodes(tc.pit, avg); (len(got) > 0 || len(tc.want) > 0) && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
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
