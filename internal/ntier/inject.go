package ntier

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/resources"
)

// This file holds every fault a trial can plant in a System before a run,
// one method per injector kind of the scenario catalogue: the very short
// bottlenecks of the paper's evaluation (a redo-log flush, a dirty-page
// burst, a stop-the-world GC pause, a DVFS downclock), connection-pool
// seizure, a DB lock convoy, a cache-expiry window, inter-tier network
// jitter, and whole-tier worker stalls (crash episodes). The first four
// schedule work on the node's resources; the rest are surfaces consulted
// on the relevant hot path (transmit, dbVisit, the conn pools) and inert
// unless armed, so a fault-free run behaves exactly as before these hooks
// existed. All randomness the armed faults consume flows from the run's
// srcFault stream, which derives from Config.Seed — same seed, same
// episode. Each method panics on a value no validated spec holds.

// linkJitter adds extra latency to one inter-tier link during [from, to).
type linkJitter struct {
	src, dst string
	from, to des.Time
	extra    time.Duration
}

// convoyWindow serializes DB queries behind one lock during [from, to);
// each owner holds the lock ~hold.
type convoyWindow struct {
	from, to des.Time
	hold     time.Duration
}

// missWindow overrides the buffer-pool miss model during [from, to) — the
// cache-stampede surface (every query misses and reads a large block).
type missWindow struct {
	from, to des.Time
	missProb float64
	readKB   int
}

func (sys *System) checkWindow(what string, from, to des.Time) {
	if from < 0 || to <= from {
		panic(fmt.Sprintf("ntier: %s window [%v, %v)", what,
			time.Duration(from), time.Duration(to)))
	}
}

// mustServer returns the named tier or panics.
func (sys *System) mustServer(name string) *Server {
	srv := sys.ServerByName(name)
	if srv == nil {
		panic(fmt.Sprintf("ntier: unknown node %q", name))
	}
	return srv
}

// FlushRedoLog seizes the database disk with one long sequential redo-log
// write starting at at and lasting approximately d. Queries needing the
// disk (commits, buffer-pool misses) queue behind it; blocked MySQL
// workers back requests up through C-JDBC, Tomcat and Apache — the
// cross-tier pushback of the paper's Section V-A.
func (sys *System) FlushRedoLog(at des.Time, d time.Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("ntier: non-positive flush duration %v", d))
	}
	disk := sys.DB.Node().Disk
	cfg := sys.cfg.DB.Node.Disk
	// Issue the flush as chunks so disk counters advance through the
	// episode; chunks are queued back-to-back and hold the spindle for
	// ~d in total.
	const chunkBytes = 1 << 20
	chunkTime := cfg.SeekTime +
		time.Duration(float64(chunkBytes)/(cfg.BandwidthMBps*1e6)*float64(time.Second))
	chunks := max(int(d/chunkTime), 1)
	sys.Eng.At(at, func() {
		for i := 0; i < chunks; i++ {
			disk.WriteAsync(chunkBytes)
		}
	})
}

// SurgeDirtyPages dirties burstKB of page cache on the named node at at,
// pushing the dirty size past the high watermark so the kernel flusher
// activates and saturates the node's CPU while recycling — the paper's
// second root cause (Section V-B). The episode lasts (burst − low
// watermark) / drain rate of the node's memory configuration.
func (sys *System) SurgeDirtyPages(node string, at des.Time, burstKB int) {
	srv := sys.mustServer(node)
	if burstKB <= 0 {
		panic(fmt.Sprintf("ntier: non-positive burst %dKB", burstKB))
	}
	mem := srv.Node().Mem
	sys.Eng.At(at, func() {
		mem.Dirty(burstKB * 1024)
		// If the burst alone does not cross the watermark, force the
		// episode: the scenario scripts position episodes deterministically.
		if !mem.Flushing() {
			mem.ForceFlush()
		}
	})
}

// PauseGC models a stop-the-world garbage collection on the named (Java)
// node: at at it submits one system-mode task per core, each holding its
// core for pause, so application work queues behind the collector.
func (sys *System) PauseGC(node string, at des.Time, pause time.Duration) {
	srv := sys.mustServer(node)
	if pause <= 0 {
		panic(fmt.Sprintf("ntier: non-positive GC pause %v", pause))
	}
	cpu := srv.Node().CPU
	sys.Eng.At(at, func() {
		for i := 0; i < cpu.Cores(); i++ {
			cpu.Exec(pause, resources.ModeSystem, nil)
		}
	})
}

// Downclock models dynamic voltage/frequency scaling mistakenly slowing a
// node: during [from, to) its CPU runs at speed (< 1.0 slows it).
func (sys *System) Downclock(node string, speed float64, from, to des.Time) {
	srv := sys.mustServer(node)
	if speed <= 0 {
		panic(fmt.Sprintf("ntier: non-positive DVFS speed %v", speed))
	}
	sys.checkWindow("dvfs", from, to)
	cpu := srv.Node().CPU
	sys.Eng.At(from, func() { cpu.SetSpeed(speed) })
	sys.Eng.At(to, func() { cpu.SetSpeed(1.0) })
}

// SeizeConns acquires n connections of the named tier's downstream pool at
// from and returns them at to — leaked or stuck connections. Requests
// needing a connection queue FIFO behind the seizure while still holding
// their worker thread, so the stall amplifies into upstream queue growth.
func (sys *System) SeizeConns(tier string, n int, from, to des.Time) {
	pool := sys.mustServer(tier).conns
	if pool == nil {
		panic(fmt.Sprintf("ntier: tier %q has no downstream connection pool", tier))
	}
	if n <= 0 || n > pool.limit {
		panic(fmt.Sprintf("ntier: seize %d of %d connections", n, pool.limit))
	}
	sys.checkWindow("conn seizure", from, to)
	sys.Eng.At(from, func() {
		var held []string
		released := false
		for i := 0; i < n; i++ {
			pool.Acquire(func(c string) {
				if released {
					// Granted after the episode ended: give it straight back.
					pool.Put(c)
					return
				}
				held = append(held, c)
			})
		}
		sys.Eng.At(to, func() {
			released = true
			for _, c := range held {
				pool.Put(c)
			}
			held = nil
		})
	})
}

// ArmLockConvoy serializes every DB query issued during [from, to) behind
// a single lock, each owner holding it ~hold (jittered from the fault
// stream). Arrivals outrun the serial drain, so the DB tier's queue
// balloons and pushes back through every upstream tier while no resource
// gauge saturates — the software-contention signature.
func (sys *System) ArmLockConvoy(from, to des.Time, hold time.Duration) {
	sys.checkWindow("lock convoy", from, to)
	if hold <= 0 {
		panic(fmt.Sprintf("ntier: non-positive convoy hold %v", hold))
	}
	if sys.convoy != nil {
		panic("ntier: lock convoy already armed")
	}
	sys.convoy = &convoyWindow{from: from, to: to, hold: hold}
}

// ArmCacheExpiry overrides the DB buffer-pool miss model during [from,
// to): a mass cache expiry after which queries miss with missProb and each
// miss reads readKB from the database disk — the stampede that seizes the
// disk with reads (where a redo-log flush seizes it with writes).
func (sys *System) ArmCacheExpiry(from, to des.Time, missProb float64, readKB int) {
	sys.checkWindow("cache expiry", from, to)
	if missProb <= 0 || missProb > 1 {
		panic(fmt.Sprintf("ntier: cache-expiry miss probability %v", missProb))
	}
	if readKB <= 0 {
		panic(fmt.Sprintf("ntier: cache-expiry read size %dKB", readKB))
	}
	if sys.expiry != nil {
		panic("ntier: cache expiry already armed")
	}
	sys.expiry = &missWindow{from: from, to: to, missProb: missProb, readKB: readKB}
}

// ArmNetJitter adds ~extra one-way latency (jittered from the fault
// stream) to every message on the (src, dst) link — both directions —
// during [from, to).
func (sys *System) ArmNetJitter(src, dst string, from, to des.Time, extra time.Duration) {
	for _, name := range []string{src, dst} {
		if name != "client" {
			sys.mustServer(name)
		}
	}
	sys.checkWindow("net jitter", from, to)
	if extra <= 0 {
		panic(fmt.Sprintf("ntier: non-positive jitter %v", extra))
	}
	sys.jitters = append(sys.jitters, linkJitter{src: src, dst: dst, from: from, to: to, extra: extra})
}

// StallWorkers seizes every worker slot of the named tier during [from,
// to) — one crash/restart episode. In-service requests finish and then the
// tier accepts nothing: arrivals mark UA and queue, upstream workers block
// on their in-flight calls, and at to the backlog drains FIFO.
func (sys *System) StallWorkers(tier string, from, to des.Time) {
	srv := sys.mustServer(tier)
	sys.checkWindow("worker stall", from, to)
	pool := srv.pool
	sys.Eng.At(from, func() {
		granted := 0
		var tokens []*des.WaitToken
		for i := 0; i < srv.spec.Workers; i++ {
			if tok := pool.Acquire(func() { granted++ }); tok != nil {
				tokens = append(tokens, tok)
			}
		}
		sys.Eng.At(to, func() {
			// Slots still queued for are abandoned; slots actually held
			// are released, granting blocked requests FIFO.
			for _, tok := range tokens {
				tok.Cancel()
			}
			for i := 0; i < granted; i++ {
				pool.Release()
			}
		})
	})
}
