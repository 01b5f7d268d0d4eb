package resources

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
)

// DiskConfig sets the service-time model of a Disk: every operation costs
// SeekTime plus transfer time at BandwidthMBps.
type DiskConfig struct {
	// SeekTime is the fixed per-operation latency (positioning + controller).
	SeekTime time.Duration
	// BandwidthMBps is the sequential transfer rate in MB/s.
	BandwidthMBps float64
}

// DefaultDiskConfig models a 7.2k-rpm SATA disk of the paper's era.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{SeekTime: 4 * time.Millisecond, BandwidthMBps: 120}
}

// Disk is a single-spindle FIFO device. Synchronous operations (database
// commits, redo-log flushes) occupy the spindle and block their caller;
// asynchronous writeback submitted by the memory flusher also occupies the
// spindle but blocks nobody. Cumulative counters mirror /proc/diskstats.
type Disk struct {
	eng *des.Engine
	res *des.Resource
	cfg DiskConfig

	readOps  uint64
	writeOps uint64
	readKB   float64
	writeKB  float64

	onChange func()
}

// newDisk returns a disk with the given service-time model.
func newDisk(eng *des.Engine, name string, cfg DiskConfig) *Disk {
	if cfg.SeekTime < 0 || cfg.BandwidthMBps <= 0 {
		panic(fmt.Sprintf("resources: invalid disk config %+v", cfg))
	}
	return &Disk{eng: eng, res: des.NewResource(eng, name, 1), cfg: cfg}
}

// OnChange registers a hook invoked when the disk's busy/queue state
// changes; the node accountant integrates iowait from it.
func (d *Disk) OnChange(fn func()) { d.onChange = fn }

// QueueLen returns the number of queued (not yet serviced) operations.
func (d *Disk) QueueLen() int { return d.res.QueueLen() }

// Pending returns in-service plus queued operations, the avgqu-sz analogue.
func (d *Disk) Pending() int { return d.res.InUse() + d.res.QueueLen() }

func (d *Disk) serviceTime(bytes int) time.Duration {
	transfer := time.Duration(float64(bytes) / (d.cfg.BandwidthMBps * 1e6) * float64(time.Second))
	return d.cfg.SeekTime + transfer
}

func (d *Disk) op(bytes int, write bool, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("resources: negative disk op size %d", bytes))
	}
	// Integrate pre-change state before the queue/occupancy mutates.
	if d.onChange != nil {
		d.onChange()
	}
	d.res.Acquire(func() {
		d.eng.After(d.serviceTime(bytes), func() {
			if d.onChange != nil {
				d.onChange()
			}
			if write {
				d.writeOps++
				d.writeKB += float64(bytes) / 1024
			} else {
				d.readOps++
				d.readKB += float64(bytes) / 1024
			}
			d.res.Release()
			if done != nil {
				done()
			}
		})
	})
}

// Read performs a synchronous read of the given size, calling done on
// completion.
func (d *Disk) Read(bytes int, done func()) { d.op(bytes, false, done) }

// Write performs a synchronous write of the given size, calling done on
// completion. Database commits and redo-log flushes use this path.
func (d *Disk) Write(bytes int, done func()) { d.op(bytes, true, done) }

// WriteAsync submits background writeback; nothing waits on it but it
// occupies the spindle and counts toward write throughput. Log-file
// flushing and dirty-page writeback use this path.
func (d *Disk) WriteAsync(bytes int) { d.op(bytes, true, nil) }

// Counters returns cumulative operation counts and kilobytes transferred.
func (d *Disk) Counters() (readOps, writeOps uint64, readKB, writeKB float64) {
	return d.readOps, d.writeOps, d.readKB, d.writeKB
}

// BusyIntegral returns the integral of spindle busy time (unit-ns), the
// basis for interval %util exactly as iostat computes it.
func (d *Disk) BusyIntegral() float64 { return d.res.BusyIntegral() }

// WaitIntegral returns the integral of queue length over time, the basis
// for avgqu-sz.
func (d *Disk) WaitIntegral() float64 { return d.res.WaitIntegral() }

// Utilization returns whole-run mean spindle utilization.
func (d *Disk) Utilization() float64 { return d.res.Utilization() }
