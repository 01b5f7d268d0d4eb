package resources

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
)

func testNode(eng *des.Engine, cores int) *Node {
	return NewNode(eng, NodeConfig{
		Name:   "test1",
		Cores:  cores,
		Disk:   DefaultDiskConfig(),
		Memory: DefaultMemoryConfig(),
	})
}

func TestCPUExecCompletesAfterDemand(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 2)
	var doneAt des.Time
	cpu.Exec(10*time.Millisecond, ModeUser, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 10*time.Millisecond {
		t.Fatalf("exec completed at %v, want 10ms", doneAt)
	}
}

func TestCPUContentionQueues(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		cpu.Exec(5*time.Millisecond, ModeUser, func() { order = append(order, i) })
	}
	if cpu.RunQueue() != 2 {
		t.Fatalf("run queue %d, want 2", cpu.RunQueue())
	}
	eng.Run()
	if eng.Now() != 15*time.Millisecond {
		t.Fatalf("3 serialized 5ms tasks finished at %v, want 15ms", eng.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestCPUSpeedScalesDemand(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 1)
	cpu.SetSpeed(0.5) // DVFS: half frequency
	var doneAt des.Time
	cpu.Exec(10*time.Millisecond, ModeUser, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 20*time.Millisecond {
		t.Fatalf("half-speed exec completed at %v, want 20ms", doneAt)
	}
}

func TestCPUModeAccounting(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 4)
	cpu.Exec(10*time.Millisecond, ModeUser, nil)
	cpu.Exec(30*time.Millisecond, ModeSystem, nil)
	cpu.Exec(5*time.Millisecond, ModeFlusher, nil)
	eng.Run()
	user, sys, flush := cpu.Times()
	if got := time.Duration(user); got != 10*time.Millisecond {
		t.Fatalf("user time %v, want 10ms", got)
	}
	if got := time.Duration(sys); got != 30*time.Millisecond {
		t.Fatalf("system time %v, want 30ms", got)
	}
	if got := time.Duration(flush); got != 5*time.Millisecond {
		t.Fatalf("flusher time %v, want 5ms", got)
	}
}

func TestDiskServiceTime(t *testing.T) {
	eng := des.NewEngine()
	d := newDisk(eng, "sda", DiskConfig{SeekTime: 4 * time.Millisecond, BandwidthMBps: 100})
	var doneAt des.Time
	d.Write(1_000_000, func() { doneAt = eng.Now() }) // 1MB at 100MB/s = 10ms + 4ms seek
	eng.Run()
	if doneAt != 14*time.Millisecond {
		t.Fatalf("1MB write completed at %v, want 14ms", doneAt)
	}
	_, wo, _, wk := d.Counters()
	if wo != 1 {
		t.Fatalf("write ops %d, want 1", wo)
	}
	if math.Abs(wk-976.5625) > 0.01 {
		t.Fatalf("write KB %v, want ~976.56", wk)
	}
}

func TestDiskFIFOAndUtilization(t *testing.T) {
	eng := des.NewEngine()
	d := newDisk(eng, "sda", DiskConfig{SeekTime: 10 * time.Millisecond, BandwidthMBps: 1000})
	for i := 0; i < 5; i++ {
		d.WriteAsync(0)
	}
	eng.At(100*time.Millisecond, func() {})
	eng.Run()
	// 5 ops * 10ms = 50ms busy over 100ms => 50%.
	if u := d.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
}

func TestMemoryFlushTriggersAtHighWater(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 2)
	disk := newDisk(eng, "sda", DefaultDiskConfig())
	cfg := MemoryConfig{
		TotalKB: 1024 * 1024, HighWaterKB: 1000, LowWaterKB: 100,
		DrainKBps: 100 * 1024, FlushWorkers: 2, FlushSlice: time.Millisecond,
		WritebackFraction: 0.25,
	}
	m := newMemory(eng, "mem", cfg, cpu, disk)
	var started, ended des.Time
	m.OnFlushStart = func(now des.Time, _ float64) { started = now }
	m.OnFlushEnd = func(now des.Time, _ float64) { ended = now }

	eng.At(10*time.Millisecond, func() { m.Dirty(2000 * 1024) }) // 2000KB > high water
	eng.Run()

	if m.Flushes() != 1 {
		t.Fatalf("flush episodes %d, want 1", m.Flushes())
	}
	if started != 10*time.Millisecond {
		t.Fatalf("flush started at %v, want 10ms", started)
	}
	if ended <= started {
		t.Fatalf("flush ended at %v, not after start %v", ended, started)
	}
	if m.DirtyKB() > cfg.LowWaterKB {
		t.Fatalf("dirty %vKB above low water after flush", m.DirtyKB())
	}
	// Draining ~1900KB at 100MB/s should take ~19ms of flusher work.
	dur := ended - started
	if dur < 10*time.Millisecond || dur > 60*time.Millisecond {
		t.Fatalf("flush duration %v outside plausible range", dur)
	}
}

func TestMemoryFlushSaturatesCPU(t *testing.T) {
	eng := des.NewEngine()
	node := NewNode(eng, NodeConfig{
		Name: "app1", Cores: 2, Disk: DefaultDiskConfig(),
		Memory: MemoryConfig{
			TotalKB: 1024 * 1024, HighWaterKB: 5000, LowWaterKB: 100,
			DrainKBps: 20 * 1024, FlushWorkers: 2, FlushSlice: time.Millisecond,
			WritebackFraction: 0,
		},
	})
	eng.At(0, func() { node.Mem.Dirty(6000 * 1024) })
	eng.RunUntil(50 * time.Millisecond)
	snapMid := node.Snap()
	flushPct := snapMid.CPU.Flusher / (float64(eng.Now()) * 2) * 100
	if flushPct < 90 {
		t.Fatalf("flusher CPU during recycling = %.1f%%, want >90%%", flushPct)
	}
	if snapMid.CPU.System > snapMid.CPU.Flusher/10 {
		t.Fatalf("recycling charged to system (%.0f) not flusher (%.0f)",
			snapMid.CPU.System, snapMid.CPU.Flusher)
	}
}

func TestMemoryThrottleWriteBlocksDuringFlush(t *testing.T) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 2)
	disk := newDisk(eng, "sda", DefaultDiskConfig())
	cfg := MemoryConfig{
		TotalKB: 1024 * 1024, HighWaterKB: 1000, LowWaterKB: 100,
		DrainKBps: 100 * 1024, FlushWorkers: 1, FlushSlice: time.Millisecond,
		WritebackFraction: 0,
	}
	m := newMemory(eng, "mem", cfg, cpu, disk)
	var ranAt des.Time
	var flushEnd des.Time
	m.OnFlushEnd = func(now des.Time, _ float64) { flushEnd = now }

	eng.At(0, func() { m.Dirty(5000 * 1024) }) // start episode
	eng.At(des.Time(time.Millisecond), func() {
		if !m.Flushing() {
			t.Error("not flushing 1ms into episode")
		}
		m.ThrottleWrite(func() { ranAt = eng.Now() })
		if m.ThrottledWriters() != 1 {
			t.Errorf("throttled writers = %d, want 1", m.ThrottledWriters())
		}
	})
	eng.Run()
	if ranAt == 0 || ranAt != flushEnd {
		t.Fatalf("throttled writer ran at %v, flush ended %v", ranAt, flushEnd)
	}
	// Outside an episode the continuation runs inline.
	inline := false
	m.ThrottleWrite(func() { inline = true })
	if !inline {
		t.Fatal("ThrottleWrite blocked outside an episode")
	}
}

func TestNodeIOWaitAccounting(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(eng, 2)
	// Idle CPU + busy disk for 100ms => iowait charged.
	node.Disk.Write(0, nil) // 4ms seek
	eng.At(4*time.Millisecond, func() {})
	eng.Run()
	snap := node.Snap()
	if snap.CPU.IOWait <= 0 {
		t.Fatal("no iowait charged while disk busy and CPU idle")
	}
	// At most 1 core charged (only 1 outstanding op).
	if got, limit := snap.CPU.IOWait, float64(4*time.Millisecond)+1; got > limit {
		t.Fatalf("iowait %v exceeds one core over busy window", time.Duration(got))
	}
}

func TestNodeIOWaitZeroWhenCPUBusy(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(eng, 1)
	node.CPU.Exec(10*time.Millisecond, ModeUser, nil) // CPU fully busy
	node.Disk.Write(0, nil)                           // disk busy 4ms
	eng.Run()
	snap := node.Snap()
	if snap.CPU.IOWait != 0 {
		t.Fatalf("iowait %v while all cores busy, want 0", snap.CPU.IOWait)
	}
}

func TestIntervalDiff(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(eng, 2)
	a := node.Snap()
	node.CPU.Exec(50*time.Millisecond, ModeUser, nil)
	eng.At(100*time.Millisecond, func() {})
	eng.Run()
	b := node.Snap()
	iv := Diff(a, b, 2)
	// 50ms of 1 core over 100ms of 2 cores = 25%.
	if math.Abs(iv.UserPct-25) > 0.5 {
		t.Fatalf("user%% = %v, want 25", iv.UserPct)
	}
	if iv.IdlePct < 70 || iv.IdlePct > 76 {
		t.Fatalf("idle%% = %v, want ~75", iv.IdlePct)
	}
	if iv.Start != a.At || iv.End != b.At {
		t.Fatal("interval bounds not copied")
	}
}

func TestIntervalDiffZeroDT(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(eng, 2)
	a := node.Snap()
	iv := Diff(a, a, 2)
	if iv.UserPct != 0 || iv.DiskUtilPct != 0 {
		t.Fatal("zero-interval diff produced non-zero rates")
	}
}

func TestNetCounters(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(eng, 2)
	node.NetSend(3000)
	node.NetRecv(1448 * 2)
	s := node.Snap()
	if s.NetTxBytes != 3000 || s.NetRxBytes != 2896 {
		t.Fatalf("net counters tx=%v rx=%v", s.NetTxBytes, s.NetRxBytes)
	}
	if s.NetTxPkts != 3 || s.NetRxPkts != 3 {
		t.Fatalf("pkt counters tx=%d rx=%d, want 3,3", s.NetTxPkts, s.NetRxPkts)
	}
}

func TestNodeClockOffset(t *testing.T) {
	eng := des.NewEngine()
	node := NewNode(eng, NodeConfig{
		Name: "db1", Cores: 1, Disk: DefaultDiskConfig(), Memory: DefaultMemoryConfig(),
		ClockOffset: 500 * time.Microsecond,
	})
	w := node.Wall(time.Second)
	want := time.Date(2017, time.April, 1, 0, 0, 1, 500000, time.UTC)
	if !w.Equal(want) {
		t.Fatalf("wall = %v, want %v", w, want)
	}
}

// Property: for any sequence of CPU and disk activity, the four CPU time
// classes are non-negative and sum to cores*elapsed.
func TestCPUTimeClassesSumProperty(t *testing.T) {
	f := func(demands []uint16) bool {
		eng := des.NewEngine()
		node := testNode(eng, 2)
		for i, d := range demands {
			at := des.Time(i%7) * des.Time(time.Millisecond)
			dur := time.Duration(d%2000) * time.Microsecond
			mode := ModeUser
			if d%3 == 0 {
				mode = ModeSystem
			}
			eng.At(at, func() {
				node.CPU.Exec(dur, mode, nil)
				if d%5 == 0 {
					node.Disk.WriteAsync(int(d))
				}
			})
		}
		eng.Run()
		s := node.Snap()
		total := float64(eng.Now()) * 2
		sum := s.CPU.User + s.CPU.System + s.CPU.IOWait + s.CPU.Idle
		if s.CPU.User < 0 || s.CPU.System < 0 || s.CPU.IOWait < 0 || s.CPU.Idle < 0 {
			return false
		}
		return math.Abs(sum-total) < float64(time.Millisecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCPUExec(b *testing.B) {
	eng := des.NewEngine()
	cpu := newCPU(eng, "cpu", 8)
	for i := 0; i < b.N; i++ {
		eng.At(des.Time(i*100), func() { cpu.Exec(time.Microsecond*50, ModeUser, nil) })
	}
	b.ResetTimer()
	eng.Run()
}
