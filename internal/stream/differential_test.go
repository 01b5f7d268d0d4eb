package stream_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/scenario"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
)

// These tests compare the online detector with the batch diagnosis of the
// same logs, alert for window, with no wall clock involved: what they pin
// is behaviour, not timing.

const detectWindow = 50 * time.Millisecond

// lockstepTick is the slice of trial each source advances per step: the
// tailer's default poll at 1x.
const lockstepTick = 10 * time.Millisecond

// lockstep replays the streamable logs of dir through a remote-fed engine
// with default options. Every source advances by one tick's share of its
// records per step, and a step is loaded, the watermark moved and the
// detector run before the next begins: the engine is never shown event
// time ahead of what a 1x tail that keeps up delivers, and nothing depends
// on the machine's speed. Records are paced by count as stream.Producer
// paces bytes. It returns the alerts, the shutdown pass's included.
func lockstep(t *testing.T, dir string, trial time.Duration) []stream.Alert {
	t.Helper()
	plan := transform.DefaultPlan()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := stream.NewRemote(stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type feed struct {
		src     *stream.RemoteSource
		entries []mxml.Entry
		sent    int
	}
	var feeds []*feed
	for _, f := range files {
		if f.IsDir() || !stream.Streamable(plan, f.Name()) {
			continue
		}
		b, _ := plan.Find(f.Name())
		parser, err := parsers.Get(b.Parser)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fd := &feed{}
		if err := parser.Parse(bytes.NewReader(data), b.Instructions, func(e mxml.Entry) error {
			fd.entries = append(fd.entries, e)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if fd.src, _, err = pipe.OpenRemote(path, f.Name()); err != nil {
			t.Fatal(err)
		}
		feeds = append(feeds, fd)
	}
	if len(feeds) == 0 {
		t.Fatalf("nothing streamable in %s", dir)
	}
	pipe.Start()
	steps := int(trial / lockstepTick)
	for k := 1; k <= steps; k++ {
		var wg sync.WaitGroup
		for _, fd := range feeds {
			upTo := len(fd.entries) * k / steps
			if upTo == fd.sent {
				continue
			}
			wg.Add(1)
			b := wire.Batch{Offset: int64(upTo)}
			b.AppendEntries(fd.entries[fd.sent:upTo])
			fd.src.AppendBatch(&b, wg.Done)
			fd.sent = upTo
		}
		wg.Wait()
	}
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	return pipe.Alerts()
}

// online reports whether the watermark, not the shutdown pass, raised a.
func online(a stream.Alert) bool { return a.WatermarkUS != math.MaxInt64 }

func at(us int64) time.Duration {
	return time.Duration(us-simtime.Epoch.UnixMicro()) * time.Microsecond
}

func render(wd core.WindowDiagnosis) string {
	return fmt.Sprintf("%s@%s [%v – %v]", wd.Kind, wd.Node, at(wd.Window.StartMicros), at(wd.Window.EndMicros))
}

// sameVerdicts holds the alerts to the batch windows one to one: every
// alert has the extent, kind and node of a batch window, and every batch
// window has an alert.
func sameVerdicts(t *testing.T, alerts []stream.Alert, batch []core.WindowDiagnosis) {
	t.Helper()
	used := make([]bool, len(batch))
next:
	for _, a := range alerts {
		d := a.Diagnosis
		for i, w := range batch {
			if !used[i] && render(d) == render(w) && d.Window.StartMicros == w.Window.StartMicros && d.Window.EndMicros == w.Window.EndMicros {
				used[i] = true
				continue next
			}
		}
		t.Errorf("alert %s (online: %v) matches no batch window", render(d), online(a))
	}
	for i, w := range batch {
		if !used[i] {
			t.Errorf("batch window %s raised no alert", render(w))
		}
	}
}

// TestLockstepMatchesBatchCatalogue: every catalogue scenario, at its own
// seed and nine more, replayed in lockstep at 1x: the detector's alerts
// are the batch diagnosis' windows, one to one, and every window that ends
// early enough in the trial is raised by the watermark. Under -short it
// runs dbio at its own seed, and lockconvoy/seed52, whose lead-in episode
// starts 150 ms before the convoy's, inside its correlation slice.
func TestLockstepMatchesBatchCatalogue(t *testing.T) {
	for _, spec := range core.Scenarios() {
		for i := range int64(10) {
			s := spec
			s.Seed += i
			if testing.Short() && !(s.Name == "dbio" && i == 0) && !(s.Name == "lockconvoy" && s.Seed == 52) {
				continue
			}
			name := fmt.Sprintf("%s/seed%d", s.Name, s.Seed)
			t.Run(name, func(t *testing.T) {
				diag, dir, err := scenario.Run(&s, scenario.Options{WorkDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				alerts := lockstep(t, dir, s.Duration.D())
				sameVerdicts(t, alerts, diag.Windows)
				// The longest a window waits is its slice + the 2 s
				// ceiling; a window that leaves that much trial (and a
				// tick of slack per second of it) must not be left to the
				// shutdown pass.
				for _, a := range alerts {
					horizon := s.Duration.D().Microseconds() - a.SliceUS - (stream.DefaultGrace + 500*time.Millisecond).Microseconds()
					if end := a.Diagnosis.Window.EndMicros - simtime.Epoch.UnixMicro(); end < horizon && !online(a) {
						t.Errorf("%s ended %v into a %v trial and was only raised at shutdown",
							render(a.Diagnosis), at(a.Diagnosis.Window.EndMicros), s.Duration.D())
					}
				}
				t.Logf("%d alerts, batch %d windows", len(alerts), len(diag.Windows))
			})
		}
	}
}

// plantedDBIO runs the dbio trial with front-tier requests planted in its
// access log, each [ua, ud] in µs into the trial, and replays it in
// lockstep. The alerts must be the batch diagnosis' windows one to one;
// it returns them rendered with whether the watermark raised them.
func plantedDBIO(t *testing.T, reqs ...[2]int64) []string {
	t.Helper()
	spec, ok := core.ScenarioByName("dbio")
	if !ok {
		t.Fatal("no dbio scenario")
	}
	_, dir, err := scenario.Run(spec, scenario.Options{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "apache_access.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	ud := func(line string) int64 {
		var v int64
		if i := strings.Index(line, " UD="); i >= 0 {
			fmt.Sscanf(line[i+4:], "%d", &v)
		}
		return v
	}
	// The access log is in departure order; each request goes in where its
	// departure falls.
	epoch := simtime.Epoch.UnixMicro()
	for k, r := range reqs {
		ua, ud0 := epoch+r[0], epoch+r[1]
		line := fmt.Sprintf(`10.1.1.99 - - [01/Apr/2017:00:00:05.800 +0000] "GET /rubbos/StoriesOfTheDay?ID=req-planted%d HTTP/1.1" 200 24576 D=%d UA=%d UD=%d DS=%d DR=%d`,
			k, ud0-ua, ua, ud0, ua+100, ud0-100)
		i := sort.Search(len(lines), func(i int) bool { return ud(lines[i]) > ud0 })
		if i == 0 || i == len(lines) {
			t.Fatalf("planted departure falls at line %d of %d", i, len(lines))
		}
		lines = append(lines[:i], append([]string{line}, lines[i:]...)...)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	db := mscopedb.Open()
	if _, err := transform.IngestDir(db, dir, t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	diag, err := core.Diagnose(db, detectWindow)
	if err != nil {
		t.Fatal(err)
	}
	alerts := lockstep(t, dir, spec.Duration.D())
	sameVerdicts(t, alerts, diag.Windows)
	var got []string
	for _, a := range alerts {
		got = append(got, fmt.Sprintf("%s online=%v", render(a.Diagnosis), online(a)))
	}
	return got
}

// TestPlantedStraggler: one front-tier request arrives 0.5 s before the
// disk-IO episode's spike window and stays 1.5 s, leaving 0.9 s after the
// window ends: in flight across the whole episode, invisible to the queue
// series until it departs, and slower than anything in the window. The
// episode's online verdict is the batch one, and the straggler's own
// bucket is flagged and classified as batch classifies it.
func TestPlantedStraggler(t *testing.T) {
	got := plantedDBIO(t, [2]int64{5_800_000, 7_300_000})
	want := []string{
		"disk-io@mysql [6.3s – 6.4s] online=true",
		"disk-io@mysql [7.3s – 7.35s] online=true",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("alerts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestPlantedSpikeAfterAnEpisode: a 300 ms spike of 300 ms requests, one
// departing every 50 ms from 1 s after the disk-IO episode ends, is its
// own episode, flagged and classified the same in batch and live, both
// online: the episode before it raised no bar.
func TestPlantedSpikeAfterAnEpisode(t *testing.T) {
	var reqs [][2]int64
	for ud := int64(7_410_000); ud < 7_700_000; ud += 50_000 {
		reqs = append(reqs, [2]int64{ud - 300_000, ud})
	}
	got := plantedDBIO(t, reqs...)
	want := []string{
		"disk-io@mysql [6.3s – 6.4s] online=true",
		"unknown@ [7.4s – 7.7s] online=true",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("alerts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
