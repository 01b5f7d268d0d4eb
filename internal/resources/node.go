package resources

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/simtime"
)

// NodeConfig describes one machine in the testbed.
type NodeConfig struct {
	Name        string
	Cores       int
	Disk        DiskConfig
	Memory      MemoryConfig
	ClockOffset time.Duration // simulated NTP error for this node's clock
}

// Node bundles a machine's CPU, disk, memory and network counters, and
// integrates the iowait accounting that SAR reports: at every instant, idle
// cores are charged to iowait up to the number of operations outstanding on
// the disk, exactly the kernel's nr_iowait bookkeeping.
type Node struct {
	eng  *des.Engine
	cfg  NodeConfig
	CPU  *CPU
	Disk *Disk
	Mem  *Memory

	lastChange des.Time
	iowaitInt  float64 // core-ns charged to iowait

	netRxBytes float64
	netTxBytes float64
	netRxPkts  uint64
	netTxPkts  uint64
}

// NewNode constructs a node and wires the iowait accountant to its CPU and
// disk change hooks.
func NewNode(eng *des.Engine, cfg NodeConfig) *Node {
	if cfg.Name == "" {
		panic("resources: node with empty name")
	}
	n := &Node{eng: eng, cfg: cfg}
	n.CPU = newCPU(eng, cfg.Name+"/cpu", cfg.Cores)
	n.Disk = newDisk(eng, cfg.Name+"/disk", cfg.Disk)
	n.Mem = newMemory(eng, cfg.Name+"/mem", cfg.Memory, n.CPU, n.Disk)
	n.CPU.OnChange(n.account)
	n.Disk.OnChange(n.account)
	return n
}

// Name returns the node's hostname.
func (n *Node) Name() string { return n.cfg.Name }

// Config returns the node's configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Wall converts a virtual time to this node's (possibly skewed) wall clock.
func (n *Node) Wall(t des.Time) time.Time {
	return simtime.Wall(t, n.cfg.ClockOffset)
}

// Now returns the node's current wall-clock reading.
func (n *Node) Now() time.Time { return n.Wall(n.eng.Now()) }

// account integrates iowait over the interval since the last state change:
// idle cores are charged to iowait up to the count of outstanding disk
// operations.
func (n *Node) account() {
	now := n.eng.Now()
	dt := float64(now - n.lastChange)
	if dt > 0 {
		idle := n.cfg.Cores - n.CPU.BusyCores()
		blocked := n.Disk.Pending()
		iow := idle
		if blocked < iow {
			iow = blocked
		}
		if iow > 0 {
			n.iowaitInt += dt * float64(iow)
		}
	}
	n.lastChange = now
}

// NetSend charges transmitted bytes to the node's NIC counters.
func (n *Node) NetSend(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("resources: negative tx size %d", bytes))
	}
	n.netTxBytes += float64(bytes)
	n.netTxPkts += uint64(1 + bytes/1448)
}

// NetRecv charges received bytes to the node's NIC counters.
func (n *Node) NetRecv(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("resources: negative rx size %d", bytes))
	}
	n.netRxBytes += float64(bytes)
	n.netRxPkts += uint64(1 + bytes/1448)
}

// CPUTimes is a cumulative core-time snapshot in core-nanoseconds, the
// /proc/stat analogue. Idle is derived so the classes always sum to
// cores * elapsed. Flusher is kernel writeback/recycling work, reported
// inside System by system-level tools and separately by pidstat.
type CPUTimes struct {
	User    float64
	System  float64
	Flusher float64
	IOWait  float64
	Idle    float64
}

// Snapshot is a point-in-time cumulative counter dump; monitors difference
// successive snapshots to produce interval reports.
type Snapshot struct {
	At  des.Time
	CPU CPUTimes

	DiskReadOps   uint64
	DiskWriteOps  uint64
	DiskReadKB    float64
	DiskWriteKB   float64
	DiskBusyNS    float64
	DiskQueueIntg float64

	MemTotalKB  float64
	MemFreeKB   float64
	MemBuffKB   float64
	MemCachedKB float64
	MemDirtyKB  float64

	NetRxBytes float64
	NetTxBytes float64
	NetRxPkts  uint64
	NetTxPkts  uint64

	RunQueue int
	// CPUSpeed is the instantaneous clock multiplier (1.0 nominal); DVFS
	// injection lowers it, and the frequency gauge in the monitors
	// exposes it.
	CPUSpeed float64
}

// Snap returns the node's cumulative counters at the current instant.
func (n *Node) Snap() Snapshot {
	n.account()
	user, sys, flush := n.CPU.Times()
	elapsed := float64(n.eng.Now()) * float64(n.cfg.Cores)
	idle := elapsed - user - sys - flush - n.iowaitInt
	if idle < 0 {
		idle = 0
	}
	s := Snapshot{
		At: n.eng.Now(),
		CPU: CPUTimes{User: user, System: sys, Flusher: flush,
			IOWait: n.iowaitInt, Idle: idle},

		DiskBusyNS:    n.Disk.BusyIntegral(),
		DiskQueueIntg: n.Disk.WaitIntegral(),

		NetRxBytes: n.netRxBytes,
		NetTxBytes: n.netTxBytes,
		NetRxPkts:  n.netRxPkts,
		NetTxPkts:  n.netTxPkts,

		RunQueue: n.CPU.RunQueue(),
		CPUSpeed: n.CPU.Speed(),
	}
	s.DiskReadOps, s.DiskWriteOps, s.DiskReadKB, s.DiskWriteKB = diskCounters(n.Disk)
	s.MemTotalKB, s.MemFreeKB, s.MemBuffKB, s.MemCachedKB, s.MemDirtyKB = n.Mem.Counters()
	return s
}

func diskCounters(d *Disk) (uint64, uint64, float64, float64) {
	ro, wo, rk, wk := d.Counters()
	return ro, wo, rk, wk
}

// Interval summarizes the delta between two snapshots as the percentage and
// rate metrics the monitoring tools print.
type Interval struct {
	Start, End des.Time

	UserPct   float64
	SystemPct float64
	IOWaitPct float64
	IdlePct   float64

	DiskReadOpsPS  float64
	DiskWriteOpsPS float64
	DiskReadKBPS   float64
	DiskWriteKBPS  float64
	DiskUtilPct    float64
	DiskAvgQueue   float64

	MemFreeKB   float64
	MemBuffKB   float64
	MemCachedKB float64
	MemDirtyKB  float64

	NetRxKBPS float64
	NetTxKBPS float64

	RunQueue int
	// CPUMHz is the sampled clock frequency (nominal 2100 MHz scaled by
	// the DVFS multiplier at sample time).
	CPUMHz float64
	// FlusherPct is the kernel-flusher share already included in
	// SystemPct; the per-process monitor reports it as its own row.
	FlusherPct float64
}

// NominalMHz is the modelled nominal clock frequency.
const NominalMHz = 2100.0

// Diff converts two cumulative snapshots into an interval report.
func Diff(a, b Snapshot, cores int) Interval {
	dt := float64(b.At - a.At)
	iv := Interval{Start: a.At, End: b.At,
		MemFreeKB: b.MemFreeKB, MemBuffKB: b.MemBuffKB,
		MemCachedKB: b.MemCachedKB, MemDirtyKB: b.MemDirtyKB,
		RunQueue: b.RunQueue,
		CPUMHz:   b.CPUSpeed * NominalMHz,
	}
	if dt <= 0 {
		return iv
	}
	coreNS := dt * float64(cores)
	iv.UserPct = 100 * (b.CPU.User - a.CPU.User) / coreNS
	// System-level tools fold kernel flusher time into system time.
	iv.FlusherPct = 100 * (b.CPU.Flusher - a.CPU.Flusher) / coreNS
	iv.SystemPct = 100*(b.CPU.System-a.CPU.System)/coreNS + iv.FlusherPct
	iv.IOWaitPct = 100 * (b.CPU.IOWait - a.CPU.IOWait) / coreNS
	iv.IdlePct = 100 - iv.UserPct - iv.SystemPct - iv.IOWaitPct
	if iv.IdlePct < 0 {
		iv.IdlePct = 0
	}
	secs := dt / float64(time.Second)
	iv.DiskReadOpsPS = float64(b.DiskReadOps-a.DiskReadOps) / secs
	iv.DiskWriteOpsPS = float64(b.DiskWriteOps-a.DiskWriteOps) / secs
	iv.DiskReadKBPS = (b.DiskReadKB - a.DiskReadKB) / secs
	iv.DiskWriteKBPS = (b.DiskWriteKB - a.DiskWriteKB) / secs
	iv.DiskUtilPct = 100 * (b.DiskBusyNS - a.DiskBusyNS) / dt
	iv.DiskAvgQueue = (b.DiskQueueIntg - a.DiskQueueIntg) / dt
	iv.NetRxKBPS = (b.NetRxBytes - a.NetRxBytes) / 1024 / secs
	iv.NetTxKBPS = (b.NetTxBytes - a.NetTxBytes) / 1024 / secs
	return iv
}
