// Package resources models the per-node hardware the simulated testbed
// runs on: multi-core CPUs with user/system accounting, FIFO disks with
// seek + bandwidth service times, and a memory dirty-page subsystem with a
// background flusher. Each model exposes cumulative counters in the same
// shape the Linux kernel exposes through /proc, so the simulated SAR,
// iostat and collectl monitors can difference successive snapshots exactly
// like their real counterparts.
package resources

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
)

// Mode classifies CPU execution for accounting, mirroring the kernel's
// user/system split that SAR reports.
type Mode int

// CPU execution modes. ModeFlusher is kernel writeback/recycling work —
// the kernel reports it inside system time, but the per-process monitor
// (pidstat) attributes it to the flusher thread, which is how a diagnosis
// can see *who* is burning the CPU.
const (
	ModeUser Mode = iota + 1
	ModeSystem
	ModeFlusher
)

// CPU is a multi-core processor. Work is admitted FIFO onto cores; when all
// cores are busy, additional work queues, which is how CPU saturation
// stretches service times in the simulated tiers.
type CPU struct {
	eng   *des.Engine
	res   *des.Resource
	cores int

	// speed scales demand into occupancy: occupancy = demand / speed.
	// DVFS injection lowers speed below 1.0.
	speed float64

	busy       [4]int // indexed by Mode; [0] unused
	lastChange des.Time
	modeInt    [4]float64 // integral of busy cores per mode, core-ns

	onChange func()
}

// newCPU returns a CPU with the given core count.
func newCPU(eng *des.Engine, name string, cores int) *CPU {
	if cores <= 0 {
		panic(fmt.Sprintf("resources: cpu %q with %d cores", name, cores))
	}
	return &CPU{
		eng:   eng,
		res:   des.NewResource(eng, name, cores),
		cores: cores,
		speed: 1.0,
	}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// SetSpeed sets the clock-speed multiplier (DVFS). speed must be positive;
// 1.0 is nominal. Work already executing is unaffected — only newly
// admitted slices see the new speed, which approximates frequency ramps.
func (c *CPU) SetSpeed(speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("resources: non-positive cpu speed %v", speed))
	}
	c.speed = speed
}

// Speed returns the current clock-speed multiplier.
func (c *CPU) Speed() float64 { return c.speed }

// OnChange registers a hook invoked whenever busy-core occupancy changes.
// The node-level accountant uses it to integrate iowait.
func (c *CPU) OnChange(fn func()) { c.onChange = fn }

// BusyCores returns the number of cores currently executing.
func (c *CPU) BusyCores() int {
	return c.busy[ModeUser] + c.busy[ModeSystem] + c.busy[ModeFlusher]
}

// RunQueue returns the number of tasks waiting for a core.
func (c *CPU) RunQueue() int { return c.res.QueueLen() }

func (c *CPU) account() {
	now := c.eng.Now()
	dt := float64(now - c.lastChange)
	if dt > 0 {
		c.modeInt[ModeUser] += dt * float64(c.busy[ModeUser])
		c.modeInt[ModeSystem] += dt * float64(c.busy[ModeSystem])
		c.modeInt[ModeFlusher] += dt * float64(c.busy[ModeFlusher])
	}
	c.lastChange = now
}

// Exec runs demand worth of work in the given mode, calling done when the
// work completes. If all cores are busy the work queues FIFO. The demand is
// divided by the current speed multiplier at admission time.
func (c *CPU) Exec(demand time.Duration, mode Mode, done func()) {
	if demand < 0 {
		panic(fmt.Sprintf("resources: negative cpu demand %v", demand))
	}
	if mode < ModeUser || mode > ModeFlusher {
		panic(fmt.Sprintf("resources: invalid cpu mode %d", mode))
	}
	c.res.Acquire(func() {
		// Integrate the pre-change state up to this instant before
		// mutating occupancy, both here and in the node accountant.
		if c.onChange != nil {
			c.onChange()
		}
		c.account()
		c.busy[mode]++
		hold := time.Duration(float64(demand) / c.speed)
		c.eng.After(hold, func() {
			if c.onChange != nil {
				c.onChange()
			}
			c.account()
			c.busy[mode]--
			c.res.Release()
			if done != nil {
				done()
			}
		})
	})
}

// Times returns cumulative core-time integrals (core-nanoseconds) per
// mode, updated to the current instant. Samplers difference successive
// readings. Flusher time is kernel work that system-level tools fold into
// system time.
func (c *CPU) Times() (user, system, flusher float64) {
	c.account()
	return c.modeInt[ModeUser], c.modeInt[ModeSystem], c.modeInt[ModeFlusher]
}

// Utilization returns whole-run mean utilization across all cores.
func (c *CPU) Utilization() float64 {
	c.account()
	total := float64(c.eng.Now()) * float64(c.cores)
	if total <= 0 {
		return 0
	}
	return (c.modeInt[ModeUser] + c.modeInt[ModeSystem] + c.modeInt[ModeFlusher]) / total
}
