package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// schedule is the open-loop replay plan: every Tick a slice of each log is
// due, whether or not the generator or the pipeline kept up. Byte position
// is linear in wall time, the same schedule stream.Producer follows, so
// the byte written at fraction f of a file is due at Start + f*Wall. Sim
// is the simulated time the logs span; Wall == Sim replays at 1x.
type schedule struct {
	Start time.Time
	Wall  time.Duration
	Sim   time.Duration
	Tick  time.Duration
}

// ticks is how many writes the schedule makes; the last one completes
// every file.
func (s schedule) ticks() int {
	return int((s.Wall + s.Tick - 1) / s.Tick)
}

// due is the wall time of the k-th write (k from 1).
func (s schedule) due(k int) time.Time {
	return s.Start.Add(min(time.Duration(k)*s.Tick, s.Wall))
}

// frac is the share of every file that must be on disk after write k.
func (s schedule) frac(k int) float64 {
	return float64(min(time.Duration(k)*s.Tick, s.Wall)) / float64(s.Wall)
}

// dueOfEvent is when a log line stamped off after the start of the
// simulated trial is due on disk. This is the clock detection latency runs
// against: an alert is late from the moment its evidence should have been
// written, not from the moment a slow generator got round to it. The map
// from event time to byte position is taken as linear (see README,
// approximations).
func (s schedule) dueOfEvent(off time.Duration) time.Time {
	return s.Start.Add(time.Duration(float64(off) / float64(s.Sim) * float64(s.Wall)))
}

// lateness is how far behind its due time a write happened; a write that
// ran early is not late.
func lateness(actual, due time.Time) time.Duration {
	return max(actual.Sub(due), 0)
}

// pacedFile is one log being replayed.
type pacedFile struct {
	dst     string
	data    []byte
	written int
}

// pacer owns the replay of one log directory into another.
type pacer struct {
	files []*pacedFile
}

// newPacer reads every streamable file of srcDir and creates its empty
// twin in dstDir, so the pipeline registers all sources before the first
// byte arrives.
func newPacer(srcDir, dstDir string) (*pacer, error) {
	names, err := streamableFiles(srcDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return nil, err
	}
	p := &pacer{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			return nil, err
		}
		dst := filepath.Join(dstDir, name)
		if err := os.WriteFile(dst, nil, 0o644); err != nil {
			return nil, err
		}
		p.files = append(p.files, &pacedFile{dst: dst, data: data})
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("nothing streamable in %s", srcDir)
	}
	return p, nil
}

// run replays on the schedule and returns how late each write was. It
// never skips or merges writes to catch up: a late generator shows in the
// returned lateness, and the run is judged on it.
func (p *pacer) run(s schedule) ([]time.Duration, error) {
	late := make([]time.Duration, 0, s.ticks())
	for k := 1; k <= s.ticks(); k++ {
		time.Sleep(time.Until(s.due(k)))
		late = append(late, lateness(time.Now(), s.due(k)))
		if err := p.writeUpTo(s.frac(k)); err != nil {
			return late, err
		}
	}
	return late, nil
}

func (p *pacer) writeUpTo(frac float64) error {
	for _, f := range p.files {
		target := int(frac * float64(len(f.data)))
		if frac >= 1 {
			target = len(f.data)
		}
		if target <= f.written {
			continue
		}
		fh, err := os.OpenFile(f.dst, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, err = fh.Write(f.data[f.written:target])
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		f.written = target
	}
	return nil
}
