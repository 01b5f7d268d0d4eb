package ntier

import (
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
)

// faultConfig is a trial long and busy enough to show one planted episode.
func faultConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 120
	cfg.Duration = 3 * time.Second
	cfg.ThinkTime = 250 * time.Millisecond
	cfg.Seed = 7
	cfg.RetainVisits = true
	return cfg
}

// maxRTAround returns the maximum client response time for requests
// submitted in [from, to).
func maxRTAround(d *Driver, from, to time.Duration) time.Duration {
	var maxRT time.Duration
	for _, r := range d.Completed {
		if r.SubmitAt >= des.Time(from) && r.SubmitAt < des.Time(to) {
			if rt := time.Duration(r.DoneAt - r.SubmitAt); rt > maxRT {
				maxRT = rt
			}
		}
	}
	return maxRT
}

func TestFlushRedoLogCausesVLRT(t *testing.T) {
	sys := New(faultConfig())
	sys.FlushRedoLog(des.Time(1500*time.Millisecond), 300*time.Millisecond)
	d := Run(sys)

	baseline := maxRTAround(d, 500*time.Millisecond, 1200*time.Millisecond)
	during := maxRTAround(d, 1450*time.Millisecond, 1850*time.Millisecond)
	if during < 150*time.Millisecond {
		t.Fatalf("max RT during flush %v, expected very long requests", during)
	}
	if during < 4*baseline {
		t.Fatalf("flush RT %v not clearly above baseline %v", during, baseline)
	}
}

func TestSurgeDirtyPagesSaturatesCPU(t *testing.T) {
	cfg := faultConfig()
	// Slow recycling enough to observe an episode of ~200ms on 8 cores.
	cfg.App.Node.Memory.LowWaterKB = 10 * 1024
	cfg.App.Node.Memory.HighWaterKB = 400 * 1024
	cfg.App.Node.Memory.DrainKBps = 800 * 1024
	cfg.App.Node.Memory.FlushWorkers = 8
	sys := New(cfg)
	sys.SurgeDirtyPages("tomcat", des.Time(1500*time.Millisecond), 300*1024)

	mem := sys.App.Node().Mem
	var started, ended des.Time
	mem.OnFlushStart = func(now des.Time, _ float64) { started = now }
	mem.OnFlushEnd = func(now des.Time, _ float64) { ended = now }

	d := Run(sys)
	if started == 0 || ended <= started {
		t.Fatalf("no recycling episode: start=%v end=%v", started, ended)
	}
	episode := time.Duration(ended - started)
	if episode < 50*time.Millisecond || episode > time.Second {
		t.Fatalf("episode length %v outside VSB range", episode)
	}
	// Requests in flight during the episode see elongated RTs.
	during := maxRTAround(d, 1450*time.Millisecond, time.Duration(ended)+200*time.Millisecond)
	baseline := maxRTAround(d, 500*time.Millisecond, 1200*time.Millisecond)
	if during < 2*baseline {
		t.Fatalf("dirty-page episode RT %v not above baseline %v", during, baseline)
	}
}

func TestPauseGCStallsNode(t *testing.T) {
	sys := New(faultConfig())
	sys.PauseGC("tomcat", des.Time(1500*time.Millisecond), 250*time.Millisecond)
	d := Run(sys)
	during := maxRTAround(d, 1400*time.Millisecond, 1900*time.Millisecond)
	if during < 100*time.Millisecond {
		t.Fatalf("max RT during GC %v, expected stall-length requests", during)
	}
	if sys.App.PeakInflight() < 10 {
		t.Fatalf("tomcat queue peaked at %d during GC", sys.App.PeakInflight())
	}
}

func TestDownclockSlowsProcessing(t *testing.T) {
	sys := New(faultConfig())
	sys.Downclock("mysql", 0.15, des.Time(1200*time.Millisecond), des.Time(2000*time.Millisecond))
	d := Run(sys)
	during := maxRTAround(d, 1300*time.Millisecond, 1900*time.Millisecond)
	baseline := maxRTAround(d, 400*time.Millisecond, 1100*time.Millisecond)
	if during < 2*baseline {
		t.Fatalf("DVFS RT %v not above baseline %v", during, baseline)
	}
	if sys.DB.Node().CPU.Speed() != 1.0 {
		t.Fatal("CPU speed not restored after DVFS window")
	}
}

func TestUnknownNodePanics(t *testing.T) {
	sys := New(faultConfig())
	for name, arm := range map[string]func(){
		"SurgeDirtyPages": func() { sys.SurgeDirtyPages("nope", 1, 10) },
		"PauseGC":         func() { sys.PauseGC("nope", 1, time.Millisecond) },
		"Downclock":       func() { sys.Downclock("nope", 0.5, 1, des.Time(time.Millisecond)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with unknown node did not panic", name)
				}
			}()
			arm()
		}()
	}
}
