// Package bottleneck injects very short bottlenecks (VSBs) into the
// simulated testbed. The paper's two illustrative scenarios are driven by
// the first two injectors — a database redo-log flush seizing the DB disk
// (Section V-A) and dirty-page recycling saturating a node's CPU (Section
// V-B). The JVM garbage-collection and DVFS injectors reproduce two further
// root causes the paper's related-work discussion lists, so analyses can be
// exercised against a wider cause population.
package bottleneck

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/resources"
)

// Injector schedules a fault into an assembled system before the run starts.
type Injector interface {
	// Inject arms the fault on the system.
	Inject(sys *ntier.System)
}

// DBLogFlush seizes the database disk with one long sequential redo-log
// write starting at At and lasting approximately Duration. Queries needing
// the disk (commits, buffer-pool misses) queue behind it; blocked MySQL
// workers back requests up through C-JDBC, Tomcat and Apache — the
// cross-tier pushback of Figures 2/4/6/7.
type DBLogFlush struct {
	At       des.Time
	Duration time.Duration
}

var _ Injector = DBLogFlush{}

// Inject arms the flush.
func (f DBLogFlush) Inject(sys *ntier.System) {
	if f.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive flush duration %v", f.Duration))
	}
	disk := sys.DB.Node().Disk
	cfg := sys.Config().DB.Node.Disk
	// Issue the flush as chunks so disk counters advance through the
	// episode; chunks are queued back-to-back and hold the spindle for
	// ~Duration in total.
	const chunkBytes = 1 << 20
	chunkTime := cfg.SeekTime +
		time.Duration(float64(chunkBytes)/(cfg.BandwidthMBps*1e6)*float64(time.Second))
	chunks := int(f.Duration / chunkTime)
	if chunks < 1 {
		chunks = 1
	}
	sys.Eng.At(f.At, func() {
		for i := 0; i < chunks; i++ {
			disk.WriteAsync(chunkBytes)
		}
	})
}

// PeriodicDBLogFlush schedules recurring redo-log flushes: the natural
// behaviour the paper observed, where accumulated redo pages are flushed
// every so often and each flush is a fresh very short bottleneck. Count
// flushes fire at Start, Start+Period, ...
type PeriodicDBLogFlush struct {
	Start    des.Time
	Period   time.Duration
	Duration time.Duration
	Count    int
}

var _ Injector = PeriodicDBLogFlush{}

// Inject arms every occurrence.
func (f PeriodicDBLogFlush) Inject(sys *ntier.System) {
	if f.Count <= 0 || f.Period <= 0 {
		panic(fmt.Sprintf("bottleneck: periodic flush count=%d period=%v", f.Count, f.Period))
	}
	for i := 0; i < f.Count; i++ {
		DBLogFlush{At: f.Start + des.Time(i)*des.Time(f.Period), Duration: f.Duration}.Inject(sys)
	}
}

// DirtyPageSurge dirties a burst of page-cache pages on the named node at
// time At, pushing the dirty size past the high watermark so the kernel
// flusher activates and saturates the node's CPU while recycling — the
// paper's second VSB root cause. The episode length is
// (BurstKB - LowWaterKB) / DrainKBps of the node's memory configuration.
type DirtyPageSurge struct {
	Node    string
	At      des.Time
	BurstKB int
}

var _ Injector = DirtyPageSurge{}

// Inject arms the surge.
func (s DirtyPageSurge) Inject(sys *ntier.System) {
	srv := sys.ServerByName(s.Node)
	if srv == nil {
		panic(fmt.Sprintf("bottleneck: unknown node %q", s.Node))
	}
	if s.BurstKB <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive burst %dKB", s.BurstKB))
	}
	mem := srv.Node().Mem
	sys.Eng.At(s.At, func() {
		mem.Dirty(s.BurstKB * 1024)
		// If the burst alone does not cross the watermark, force the
		// episode: the scenario scripts position episodes deterministically.
		if !mem.Flushing() {
			mem.ForceFlush()
		}
	})
}

// JVMGC models a stop-the-world garbage collection on the named (Java)
// node: at time At it submits one system-mode task per core, each holding
// its core for Pause, so application work queues behind the collector.
type JVMGC struct {
	Node  string
	At    des.Time
	Pause time.Duration
}

var _ Injector = JVMGC{}

// Inject arms the collection.
func (g JVMGC) Inject(sys *ntier.System) {
	srv := sys.ServerByName(g.Node)
	if srv == nil {
		panic(fmt.Sprintf("bottleneck: unknown node %q", g.Node))
	}
	if g.Pause <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive GC pause %v", g.Pause))
	}
	node := srv.Node()
	sys.Eng.At(g.At, func() {
		for i := 0; i < node.CPU.Cores(); i++ {
			node.CPU.Exec(g.Pause, resources.ModeSystem, nil)
		}
	})
}

// DVFS models dynamic voltage/frequency scaling mistakenly downclocking a
// node: between At and At+Duration the CPU runs at Speed (< 1.0 slows it).
type DVFS struct {
	Node     string
	At       des.Time
	Duration time.Duration
	Speed    float64
}

var _ Injector = DVFS{}

// Inject arms the downclock window.
func (d DVFS) Inject(sys *ntier.System) {
	srv := sys.ServerByName(d.Node)
	if srv == nil {
		panic(fmt.Sprintf("bottleneck: unknown node %q", d.Node))
	}
	if d.Speed <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive DVFS speed %v", d.Speed))
	}
	if d.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive DVFS window %v", d.Duration))
	}
	cpu := srv.Node().CPU
	sys.Eng.At(d.At, func() { cpu.SetSpeed(d.Speed) })
	sys.Eng.At(d.At+des.Time(d.Duration), func() { cpu.SetSpeed(1.0) })
}

// ConnPoolSeize leaks Held connections from the named tier's downstream
// pool for [At, At+Duration): stuck backend connections (a mod_jk or JDBC
// pool bleed). Requests needing a free connection block FIFO while still
// holding their own tier's worker thread, so the exhaustion amplifies into
// upstream queue growth with every resource gauge flat — a pure software
// bottleneck.
type ConnPoolSeize struct {
	Tier     string
	At       des.Time
	Duration time.Duration
	Held     int
}

var _ Injector = ConnPoolSeize{}

// Inject arms the seizure.
func (c ConnPoolSeize) Inject(sys *ntier.System) {
	if c.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive seizure duration %v", c.Duration))
	}
	sys.SeizeConns(c.Tier, c.Held, c.At, c.At+des.Time(c.Duration))
}

// LockConvoy serializes every database query issued during [At,
// At+Duration) behind a single row lock, each owner holding it ~Hold. The
// DB tier's queue balloons and pushes back through every upstream tier
// while CPU and disk stay idle — contention invisible to resource
// monitors, exactly the class the paper's event monitors exist to catch.
type LockConvoy struct {
	At       des.Time
	Duration time.Duration
	Hold     time.Duration
}

var _ Injector = LockConvoy{}

// Inject arms the convoy.
func (l LockConvoy) Inject(sys *ntier.System) {
	if l.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive convoy duration %v", l.Duration))
	}
	sys.ArmLockConvoy(l.At, l.At+des.Time(l.Duration), l.Hold)
}

// CacheStampede models a mass buffer-pool expiry: during [At, At+Duration)
// queries miss the cache with probability MissProb and each miss reads
// ReadKB from the database disk, so concurrent queries stampede the
// spindle with reads — the read-side twin of the redo-log flush.
type CacheStampede struct {
	At       des.Time
	Duration time.Duration
	MissProb float64
	ReadKB   int
}

var _ Injector = CacheStampede{}

// Inject arms the expiry window.
func (c CacheStampede) Inject(sys *ntier.System) {
	if c.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive stampede duration %v", c.Duration))
	}
	sys.ArmCacheExpiry(c.At, c.At+des.Time(c.Duration), c.MissProb, c.ReadKB)
}

// NetJitter adds ~Extra of one-way latency (both directions) to the
// (Src, Dst) link during [At, At+Duration): a congested or flapping
// switch. Requests slow down without any tier-local residence growing —
// the gap shows up only between one tier's DS and the next tier's UA.
type NetJitter struct {
	Src, Dst string
	At       des.Time
	Duration time.Duration
	Extra    time.Duration
}

var _ Injector = NetJitter{}

// Inject arms the jitter window.
func (n NetJitter) Inject(sys *ntier.System) {
	if n.Duration <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive jitter duration %v", n.Duration))
	}
	sys.ArmNetJitter(n.Src, n.Dst, n.At, n.At+des.Time(n.Duration), n.Extra)
}

// CrashLoop stalls every worker of the named tier for Outage, repeating
// each Period, Count times: a crash-looping process whose supervisor keeps
// restarting it. While down the tier logs nothing past arrival marks, so
// the ingested evidence for it is missing or degraded and diagnosis must
// survive on the remaining tiers (the MissingSources path).
type CrashLoop struct {
	Node   string
	At     des.Time
	Outage time.Duration
	Period time.Duration
	Count  int
}

var _ Injector = CrashLoop{}

// Inject arms every crash episode.
func (c CrashLoop) Inject(sys *ntier.System) {
	if c.Count <= 0 {
		panic(fmt.Sprintf("bottleneck: crash-loop count %d", c.Count))
	}
	if c.Outage <= 0 {
		panic(fmt.Sprintf("bottleneck: non-positive outage %v", c.Outage))
	}
	if c.Count > 1 && c.Period <= c.Outage {
		panic(fmt.Sprintf("bottleneck: crash-loop period %v within outage %v", c.Period, c.Outage))
	}
	for i := 0; i < c.Count; i++ {
		from := c.At + des.Time(i)*des.Time(c.Period)
		sys.StallWorkers(c.Node, from, from+des.Time(c.Outage))
	}
}

// InjectAll arms every injector on the system.
func InjectAll(sys *ntier.System, injectors []Injector) {
	for _, in := range injectors {
		in.Inject(sys)
	}
}
