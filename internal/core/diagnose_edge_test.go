package core

import (
	"testing"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Synthetic evidence for ClassifyWindow edge cases: 50ms buckets over a 3s
// trial, with the window of interest at [1.0s, 1.1s].

const edgeBucketUS = 50_000

// synthSeries builds a 60-bucket series with v(i) per 50ms bucket.
func synthSeries(v func(i int) float64) *mscopedb.Series {
	s := &mscopedb.Series{}
	for i := 0; i < 60; i++ {
		s.StartMicros = append(s.StartMicros, int64(i)*edgeBucketUS)
		s.Values = append(s.Values, v(i))
	}
	return s
}

// spikeAt returns baseline except height over buckets [from, to].
func spikeAt(baseline, height float64, from, to int) func(int) float64 {
	return func(i int) float64 {
		if i >= from && i <= to {
			return height
		}
		return baseline
	}
}

func edgeWindow() analysis.Window {
	return analysis.Window{StartMicros: 1_000_000, EndMicros: 1_100_000, Peak: 500_000}
}

// TestClassifyWindowEdges drives ClassifyWindow through its degenerate and
// boundary inputs: it must never panic, never invent a cause, and resolve
// ambiguity deterministically.
func TestClassifyWindowEdges(t *testing.T) {
	// The spike builds over buckets 14–22: inside the window plus the
	// build-up the classifier inspects.
	grown := synthSeries(spikeAt(3, 60, 14, 22))
	flat := synthSeries(func(int) float64 { return 3 })
	cases := []struct {
		name     string
		ev       *Evidence
		wantKind CauseKind
		wantNode string
	}{
		{
			// No queues, no candidates, no gauges: the verdict must be
			// unknown, reached without touching any nil map.
			name:     "empty evidence",
			ev:       &Evidence{},
			wantKind: CauseUnknown,
		},
		{
			// A busy but constant gauge over a constant queue: Pearson is
			// defined as 0 for constant vectors, so a peak of 100 alone
			// must not be blamed.
			name: "zero correlation",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{"apache": flat},
				Candidates: []ResourceCandidate{
					{Name: "mysql disk", Tier: "mysql", Kind: CauseDiskIO,
						Series: synthSeries(func(int) float64 { return 100 })},
				},
			},
			wantKind: CauseUnknown,
		},
		{
			// A correlated gauge that never got busy (peak below the
			// saturation floor) must not be blamed; with only the front
			// tier's queue grown, the structural reading — its downstream
			// connection pool — speaks instead.
			name: "correlated but idle gauge",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{
					"apache": grown, "tomcat": flat, "cjdbc": flat, "mysql": flat,
				},
				Candidates: []ResourceCandidate{
					{Name: "mysql cpu", Tier: "mysql", Kind: CauseCPU,
						Series: synthSeries(spikeAt(1, 4, 14, 22))},
				},
			},
			wantKind: CauseConnPool,
			wantNode: "apache",
		},
		{
			// Queues grew at apache and tomcat while cjdbc — whose evidence
			// is present — stayed calm: the boundary tier's connection pool.
			name: "structural conn-pool",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{
					"apache": grown, "tomcat": grown, "cjdbc": flat, "mysql": flat,
				},
			},
			wantKind: CauseConnPool,
			wantNode: "tomcat",
		},
		{
			// Same growth front, but the tier behind it contributes no
			// queue evidence at all: it stopped logging — a crash loop.
			name: "structural crash-loop",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{
					"apache": grown, "tomcat": grown, "mysql": flat,
				},
			},
			wantKind: CauseCrashLoop,
			wantNode: "cjdbc",
		},
		{
			// Every tier down to the last grew with all gauges flat:
			// serialized software contention in the DB.
			name: "structural lock-convoy",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{
					"apache": grown, "tomcat": grown, "cjdbc": grown, "mysql": grown,
				},
			},
			wantKind: CauseLockConvoy,
			wantNode: "mysql",
		},
		{
			// No gauge correlates but the tomcat→cjdbc link's lag rose far
			// above its baseline: the wire is the story.
			name: "net lag spike",
			ev: &Evidence{
				Queues: map[string]*mscopedb.Series{"apache": grown},
				NetLag: map[string]*mscopedb.Series{
					"cjdbc": synthSeries(spikeAt(300, 8000, 20, 21)),
				},
			},
			wantKind: CauseNetJitter,
			wantNode: "cjdbc",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wd := ClassifyWindow(tc.ev, edgeWindow())
			if wd.Kind != tc.wantKind || wd.Node != tc.wantNode {
				t.Errorf("classified %s@%q (%s), want %s@%q",
					wd.Kind, wd.Node, wd.Verdict, tc.wantKind, tc.wantNode)
			}
		})
	}
}

// TestClassifyWindowIdenticalCandidates: two byte-identical gauge series on
// different tiers tie on both correlation and peak; the ranking must be
// stable, so the verdict deterministically goes to the first-listed
// candidate instead of flapping between runs.
func TestClassifyWindowIdenticalCandidates(t *testing.T) {
	queue := synthSeries(spikeAt(3, 60, 14, 22))
	gauge := synthSeries(spikeAt(5, 100, 14, 22))
	ev := &Evidence{
		Queues: map[string]*mscopedb.Series{"apache": queue},
		Candidates: []ResourceCandidate{
			{Name: "cjdbc disk", Tier: "cjdbc", Kind: CauseDiskIO, Series: gauge},
			{Name: "mysql disk", Tier: "mysql", Kind: CauseDiskIO, Series: gauge},
		},
	}
	wd := ClassifyWindow(ev, edgeWindow())
	if wd.Kind != CauseDiskIO || wd.Node != "cjdbc" {
		t.Errorf("classified %s@%s, want disk-io@cjdbc (stable order on a perfect tie)",
			wd.Kind, wd.Node)
	}
}

// TestSortCausesTieBreak: equal correlations must rank by in-window peak —
// the busier gauge is the likelier culprit.
func TestSortCausesTieBreak(t *testing.T) {
	causes := []analysis.Cause{
		{Name: "idle", Correlation: 0.8, PeakInWindow: 20},
		{Name: "busy", Correlation: 0.8, PeakInWindow: 95},
		{Name: "weak", Correlation: 0.4, PeakInWindow: 100},
	}
	sortCauses(causes)
	want := []string{"busy", "idle", "weak"}
	for i, w := range want {
		if causes[i].Name != w {
			t.Fatalf("rank %d is %s (r=%.2f peak=%.0f), want %s",
				i, causes[i].Name, causes[i].Correlation, causes[i].PeakInWindow, w)
		}
	}
}

// TestOverlappingVLRTWindows: two spike clusters three healthy buckets
// apart, just past episodeGap, are two episodes whose padded
// classification slices overlap; each must classify independently against
// the shared evidence and reach the same disk verdict.
func TestOverlappingVLRTWindows(t *testing.T) {
	windows := episodesOf(synthSeries(func(i int) float64 {
		switch {
		case i >= 20 && i <= 21:
			return 500_000
		case i >= 25 && i <= 26:
			return 800_000
		default:
			return 10_000
		}
	}))
	if len(windows) != 2 {
		t.Fatalf("%d VLRT windows, want 2 (windows: %+v)", len(windows), windows)
	}
	_, hi := ClassifySlice(windows[0])
	if lo, _ := ClassifySlice(windows[1]); hi < lo {
		t.Fatalf("the slices do not overlap: %+v", windows)
	}
	ev := &Evidence{
		Queues: map[string]*mscopedb.Series{"apache": synthSeries(spikeAt(3, 60, 18, 27))},
		Candidates: []ResourceCandidate{
			{Name: "mysql disk", Tier: "mysql", Kind: CauseDiskIO,
				Series: synthSeries(spikeAt(5, 100, 18, 27))},
		},
	}
	for i, w := range windows {
		wd := ClassifyWindow(ev, w)
		if wd.Kind != CauseDiskIO || wd.Node != "mysql" {
			t.Errorf("window %d classified %s@%s (%s), want disk-io@mysql",
				i, wd.Kind, wd.Node, wd.Verdict)
		}
	}
}
