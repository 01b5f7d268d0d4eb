package resources

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
)

// MemoryConfig sets the dirty-page subsystem parameters. The defaults are
// chosen so that ordinary logging traffic never triggers recycling; the
// dirty-page bottleneck scenario lowers the watermarks.
type MemoryConfig struct {
	TotalKB float64
	// HighWaterKB triggers the flusher when dirty pages exceed it
	// (vm.dirty_ratio analogue).
	HighWaterKB float64
	// LowWaterKB is where the flusher stops (dirty_background_ratio).
	LowWaterKB float64
	// DrainKBps is the recycling rate while the flusher runs.
	DrainKBps float64
	// FlushWorkers is how many kernel flusher threads run concurrently;
	// each continuously occupies one core while active, which is what
	// saturates the CPU during recycling.
	FlushWorkers int
	// FlushSlice is the CPU slice size per flusher iteration.
	FlushSlice time.Duration
	// WritebackFraction of drained bytes is submitted to the disk as
	// background writeback; the rest is recycled in memory (clean pages).
	WritebackFraction float64
}

// DefaultMemoryConfig returns a 16 GB node whose watermarks are far above
// normal logging traffic.
func DefaultMemoryConfig() MemoryConfig {
	return MemoryConfig{
		TotalKB:           16 * 1024 * 1024,
		HighWaterKB:       2 * 1024 * 1024,
		LowWaterKB:        256 * 1024,
		DrainKBps:         512 * 1024,
		FlushWorkers:      2,
		FlushSlice:        5 * time.Millisecond,
		WritebackFraction: 0.25,
	}
}

// Memory models the page cache's dirty-page state plus the background
// flusher ("dirty page recycling" in the paper's Section V-B). Writes dirty
// pages; when dirty size crosses the high watermark the flusher threads
// seize CPU and drain until the low watermark, saturating the node's CPU
// for a few hundred milliseconds — the second very-short-bottleneck root
// cause the paper diagnoses.
type Memory struct {
	eng  *des.Engine
	name string
	cfg  MemoryConfig
	cpu  *CPU
	disk *Disk

	dirtyKB   float64
	cachedKB  float64
	flushing  bool
	flushes   uint64
	throttled []func()

	// OnFlushStart and OnFlushEnd observe recycling episodes (tests and
	// scenario scripts use them).
	OnFlushStart func(now des.Time, dirtyKB float64)
	OnFlushEnd   func(now des.Time, dirtyKB float64)
}

// newMemory returns a memory subsystem bound to the node's CPU and disk.
func newMemory(eng *des.Engine, name string, cfg MemoryConfig, cpu *CPU, disk *Disk) *Memory {
	if cfg.TotalKB <= 0 || cfg.HighWaterKB <= cfg.LowWaterKB || cfg.LowWaterKB < 0 {
		panic(fmt.Sprintf("resources: invalid memory config %+v", cfg))
	}
	if cfg.DrainKBps <= 0 || cfg.FlushWorkers <= 0 || cfg.FlushSlice <= 0 {
		panic(fmt.Sprintf("resources: invalid flusher config %+v", cfg))
	}
	if cfg.WritebackFraction < 0 || cfg.WritebackFraction > 1 {
		panic(fmt.Sprintf("resources: writeback fraction %v out of [0,1]", cfg.WritebackFraction))
	}
	return &Memory{eng: eng, name: name, cfg: cfg, cpu: cpu, disk: disk,
		cachedKB: cfg.TotalKB * 0.4}
}

// DirtyKB returns the current dirty-page size.
func (m *Memory) DirtyKB() float64 { return m.dirtyKB }

// Flushing reports whether a recycling episode is in progress.
func (m *Memory) Flushing() bool { return m.flushing }

// Flushes returns the number of recycling episodes so far.
func (m *Memory) Flushes() uint64 { return m.flushes }

// Counters returns the /proc/meminfo-shaped snapshot collectl reports.
func (m *Memory) Counters() (totalKB, freeKB, buffKB, cachedKB, dirtyKB float64) {
	used := m.cachedKB + m.dirtyKB + m.cfg.TotalKB*0.2 // resident apps
	free := m.cfg.TotalKB - used
	if free < 0 {
		free = 0
	}
	return m.cfg.TotalKB, free, m.cfg.TotalKB * 0.02, m.cachedKB, m.dirtyKB
}

// Dirty records bytes written into the page cache (application writes and
// log appends), possibly waking the flusher.
func (m *Memory) Dirty(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("resources: negative dirty size %d", bytes))
	}
	m.dirtyKB += float64(bytes) / 1024
	m.maybeFlush()
}

// ForceFlush starts a recycling episode immediately regardless of
// watermarks; scenario scripts use it to position an episode in time.
func (m *Memory) ForceFlush() { m.startFlush() }

// ThrottleWrite models balance_dirty_pages: while a recycling episode is in
// progress, processes writing to the page cache are blocked until the
// episode ends. Outside an episode, cont runs immediately. This is the
// mechanism that holds worker threads and builds the queues of the paper's
// Figure 8b.
func (m *Memory) ThrottleWrite(cont func()) {
	if cont == nil {
		panic("resources: ThrottleWrite with nil continuation")
	}
	if m.flushing {
		m.throttled = append(m.throttled, cont)
		return
	}
	cont()
}

// ThrottledWriters returns the number of processes currently blocked in
// write throttling.
func (m *Memory) ThrottledWriters() int { return len(m.throttled) }

func (m *Memory) maybeFlush() {
	if !m.flushing && m.dirtyKB >= m.cfg.HighWaterKB {
		m.startFlush()
	}
}

func (m *Memory) startFlush() {
	if m.flushing {
		return
	}
	m.flushing = true
	m.flushes++
	if m.OnFlushStart != nil {
		m.OnFlushStart(m.eng.Now(), m.dirtyKB)
	}
	for i := 0; i < m.cfg.FlushWorkers; i++ {
		m.flushWorker()
	}
}

// flushWorker runs one kernel flusher thread: repeatedly burn a CPU slice
// in system mode, draining pages each slice, until the low watermark.
func (m *Memory) flushWorker() {
	perSlice := m.cfg.DrainKBps * m.cfg.FlushSlice.Seconds() / float64(m.cfg.FlushWorkers)
	var step func()
	step = func() {
		if m.dirtyKB <= m.cfg.LowWaterKB {
			m.endFlushWorker()
			return
		}
		m.cpu.Exec(m.cfg.FlushSlice, ModeFlusher, func() {
			drained := perSlice
			if drained > m.dirtyKB {
				drained = m.dirtyKB
			}
			m.dirtyKB -= drained
			if wb := drained * m.cfg.WritebackFraction; wb >= 1 {
				m.disk.WriteAsync(int(wb * 1024))
			}
			step()
		})
	}
	step()
}

// endFlushWorker marks the episode finished when the first worker observes
// the low watermark; remaining workers exit idempotently.
func (m *Memory) endFlushWorker() {
	if !m.flushing {
		return
	}
	m.flushing = false
	if m.OnFlushEnd != nil {
		m.OnFlushEnd(m.eng.Now(), m.dirtyKB)
	}
	waiters := m.throttled
	m.throttled = nil
	for _, w := range waiters {
		w()
	}
}
