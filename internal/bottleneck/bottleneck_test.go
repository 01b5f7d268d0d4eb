package bottleneck

import (
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/ntier"
)

func testConfig() ntier.Config {
	cfg := ntier.DefaultConfig()
	cfg.Users = 120
	cfg.Duration = 3 * time.Second
	cfg.ThinkTime = 250 * time.Millisecond
	cfg.Seed = 7
	cfg.RetainVisits = true
	return cfg
}

// maxRTAround returns the maximum client response time for requests
// submitted in [from, to).
func maxRTAround(d *ntier.Driver, from, to time.Duration) time.Duration {
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

func TestDBLogFlushCausesVLRT(t *testing.T) {
	cfg := testConfig()
	sys := ntier.New(cfg)
	DBLogFlush{At: des.Time(1500 * time.Millisecond), Duration: 300 * time.Millisecond}.Inject(sys)
	d := ntier.Run(sys)

	baseline := maxRTAround(d, 500*time.Millisecond, 1200*time.Millisecond)
	during := maxRTAround(d, 1450*time.Millisecond, 1850*time.Millisecond)
	if during < 150*time.Millisecond {
		t.Fatalf("max RT during flush %v, expected very long requests", during)
	}
	if during < 4*baseline {
		t.Fatalf("flush RT %v not clearly above baseline %v", during, baseline)
	}
}

func TestDirtyPageSurgeSaturatesCPU(t *testing.T) {
	cfg := testConfig()
	// Slow recycling enough to observe an episode of ~200ms on 8 cores.
	cfg.App.Node.Memory.LowWaterKB = 10 * 1024
	cfg.App.Node.Memory.HighWaterKB = 400 * 1024
	cfg.App.Node.Memory.DrainKBps = 800 * 1024
	cfg.App.Node.Memory.FlushWorkers = 8
	sys := ntier.New(cfg)
	DirtyPageSurge{Node: "tomcat", At: des.Time(1500 * time.Millisecond), BurstKB: 300 * 1024}.Inject(sys)

	mem := sys.App.Node().Mem
	var started, ended des.Time
	mem.OnFlushStart = func(now des.Time, _ float64) { started = now }
	mem.OnFlushEnd = func(now des.Time, _ float64) { ended = now }

	d := ntier.Run(sys)
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

func TestJVMGCStallsNode(t *testing.T) {
	cfg := testConfig()
	sys := ntier.New(cfg)
	JVMGC{Node: "tomcat", At: des.Time(1500 * time.Millisecond), Pause: 250 * time.Millisecond}.Inject(sys)
	d := ntier.Run(sys)
	during := maxRTAround(d, 1400*time.Millisecond, 1900*time.Millisecond)
	if during < 100*time.Millisecond {
		t.Fatalf("max RT during GC %v, expected stall-length requests", during)
	}
	if sys.App.PeakInflight() < 10 {
		t.Fatalf("tomcat queue peaked at %d during GC", sys.App.PeakInflight())
	}
}

func TestDVFSSlowsProcessing(t *testing.T) {
	cfg := testConfig()
	sys := ntier.New(cfg)
	DVFS{Node: "mysql", At: des.Time(1200 * time.Millisecond),
		Duration: 800 * time.Millisecond, Speed: 0.15}.Inject(sys)
	d := ntier.Run(sys)
	during := maxRTAround(d, 1300*time.Millisecond, 1900*time.Millisecond)
	baseline := maxRTAround(d, 400*time.Millisecond, 1100*time.Millisecond)
	if during < 2*baseline {
		t.Fatalf("DVFS RT %v not above baseline %v", during, baseline)
	}
	if sys.DB.Node().CPU.Speed() != 1.0 {
		t.Fatal("CPU speed not restored after DVFS window")
	}
}

func TestInjectAll(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = time.Second
	sys := ntier.New(cfg)
	InjectAll(sys, []Injector{
		DBLogFlush{At: des.Time(300 * time.Millisecond), Duration: 50 * time.Millisecond},
		JVMGC{Node: "tomcat", At: des.Time(600 * time.Millisecond), Pause: 30 * time.Millisecond},
	})
	d := ntier.Run(sys)
	if len(d.Completed) == 0 {
		t.Fatal("run with injectors completed no requests")
	}
}

func TestUnknownNodePanics(t *testing.T) {
	sys := ntier.New(testConfig())
	for _, in := range []Injector{
		DirtyPageSurge{Node: "nope", At: 1, BurstKB: 10},
		JVMGC{Node: "nope", At: 1, Pause: time.Millisecond},
		DVFS{Node: "nope", At: 1, Duration: time.Millisecond, Speed: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T with unknown node did not panic", in)
				}
			}()
			in.Inject(sys)
		}()
	}
}
