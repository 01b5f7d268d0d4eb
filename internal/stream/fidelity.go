package stream

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Fidelity modes selectable in Config.Fidelity.Mode.
const (
	// FidelityFull (or "") disables degradation: every row is retained,
	// exactly the pre-fidelity pipeline.
	FidelityFull = "full"
	// FidelityAdaptive runs the hysteresis controller: the pipeline starts
	// FULL and degrades/recovers as the pressure signals dictate.
	FidelityAdaptive = "adaptive"
	// FidelityAggregate pins AGGREGATE mode for the whole session — the
	// differential tests use it to prove degraded verdicts match full ones
	// without having to manufacture load.
	FidelityAggregate = "aggregate"
)

// TableRollup is the coarse per-window aggregate table degraded modes fold
// rows into: one row per (source table, metric, rollup window) carrying
// count/sum/min/max — enough for capacity trending while full fidelity is
// suspended outside anomaly neighbourhoods.
const TableRollup = "mscope_rollup"

// FidelityOptions parameterizes the degradation subsystem. The zero value
// disables it.
type FidelityOptions struct {
	// Mode is FidelityFull, FidelityAdaptive, or FidelityAggregate.
	Mode string
	// ringCap bounds each source's retention ring (default 8192 rows;
	// only this package's tests set it).
	ringCap int
	// MaxRetainedRows is the memory-pressure budget: the rows the loaded
	// tables hold in memory (a store-backed table's unsealed tail, every
	// row of an in-memory one) plus ring and rollup rows, over this
	// budget, are the Mem signal (default 500000).
	MaxRetainedRows int64
	// LagBudget normalizes the watermark-lag pressure signal (default 8s
	// of event time).
	LagBudget time.Duration
	// Enter is the controller's FULL→AGGREGATE pressure threshold; zero
	// takes the fidelity package default. The other thresholds and the
	// dwell are always the package defaults.
	Enter float64
}

// fidelityEvalEvery is the controller evaluation cadence in records.
const fidelityEvalEvery = 64

// rollupWindowUS is the aggregate bucket width: coarse on purpose, since
// the detector's fine PIT statistic is fed per record and does not depend
// on retained rows.
const rollupWindowUS = int64(time.Second / time.Microsecond)

func (o FidelityOptions) enabled() bool {
	return o.Mode == FidelityAdaptive || o.Mode == FidelityAggregate
}

func (o FidelityOptions) withDefaults() FidelityOptions {
	if o.ringCap <= 0 {
		o.ringCap = 8192
	}
	if o.MaxRetainedRows <= 0 {
		o.MaxRetainedRows = 500_000
	}
	if o.LagBudget <= 0 {
		o.LagBudget = 8 * time.Second
	}
	return o
}

// Self-telemetry for the degradation stages; no-ops unless a collector is
// enabled, like the other per-record counters.
var (
	obsRowsRolledUp = selfobs.NewCounter(selfobs.PipeLive, "fidelity", "rows_rolled_up")
	obsRowsPromoted = selfobs.NewCounter(selfobs.PipeLive, "fidelity", "rows_promoted")
	obsRowsShed     = selfobs.NewCounter(selfobs.PipeLive, "fidelity", "rows_shed")
	obsStalls       = selfobs.NewCounter(selfobs.PipeLive, "backpressure", "stalls")
	obsTransitions  = selfobs.NewCounter(selfobs.PipeLive, "fidelity", "transitions")
)

// aggKey addresses one rollup accumulator cell.
type aggKey struct {
	table  string
	metric string
	winUS  int64
}

// aggCell is one open accumulator; cells flush to TableRollup once their
// window closes behind the low watermark.
type aggCell struct {
	n        int64
	sum, min float64
	max      float64
}

// fidelityRun is the loader-owned runtime state of the degradation
// subsystem. Counters are atomic only because Status() reads them from
// other goroutines; all mutation happens on the loader.
type fidelityRun struct {
	opts   FidelityOptions
	ctrl   *fidelity.Controller // nil when mode is pinned
	pinned bool

	rings map[*source]*fidelity.Ring[blockRow]
	cells map[aggKey]*aggCell

	state       atomic.Int32
	rolledUp    atomic.Int64 // records folded into rollup cells
	promoted    atomic.Int64 // ring rows appended retroactively
	shedRows    atomic.Int64 // records dropped with no ring retention
	rollupRows  atomic.Int64 // rows flushed into TableRollup
	ringRows    atomic.Int64 // rows currently live across all rings
	ringEvicted atomic.Int64
	transitions atomic.Int64
	sinceEval   int
}

func newFidelityRun(opts FidelityOptions) *fidelityRun {
	o := opts.withDefaults()
	f := &fidelityRun{
		opts:  o,
		rings: make(map[*source]*fidelity.Ring[blockRow]),
		cells: make(map[aggKey]*aggCell),
	}
	if o.Mode == FidelityAggregate {
		f.pinned = true
		f.state.Store(int32(fidelity.Aggregate))
	} else {
		f.ctrl = fidelity.NewController(fidelity.Config{Enter: o.Enter})
	}
	return f
}

// fidState is the current fidelity level; Full when the subsystem is off.
func (p *Pipeline) fidState() fidelity.State {
	if p.fid == nil {
		return fidelity.Full
	}
	return fidelity.State(p.fid.state.Load())
}

// evalPressure samples the three load signals and folds them into the
// controller. Called from the loader every fidelityEvalEvery records and on
// each watermark advance; pinned modes skip the controller but keep the
// cadence cheap to reason about.
func (p *Pipeline) evalPressure() {
	f := p.fid
	if f == nil || f.pinned {
		return
	}
	var pr fidelity.Pressure
	pr.Queue = p.QueueFill()
	if low, ok := p.wm.Low(); ok && low != finalLow {
		if maxF := p.wm.MaxFrontier(); maxF > low {
			pr.Lag = float64(maxF-low) / float64(f.opts.LagBudget.Microseconds())
		}
	}
	retained := p.residentRows() + f.rollupRows.Load() + f.ringRows.Load()
	pr.Mem = float64(retained) / float64(f.opts.MaxRetainedRows)
	if _, changed := f.ctrl.Eval(pr); changed {
		f.state.Store(int32(f.ctrl.State()))
		f.transitions.Add(1)
		obsTransitions.Add(1)
	}
}

// residentRows counts the rows the loader's tables hold in memory: each
// table's rows less those sealed into on-disk segments, once per table
// however many sources feed it. A table no store backs seals nothing, so
// in memory every row counts. Loader-owned.
func (p *Pipeline) residentRows() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
next:
	for i, s := range p.sources {
		for _, o := range p.sources[:i] {
			if o.table == s.table {
				continue next
			}
		}
		if s.tbl == nil {
			if !p.db.HasTable(s.table) {
				continue
			}
			s.tbl, _ = p.db.Table(s.table)
		}
		n += int64(s.tbl.Rows() - s.tbl.SealedRows())
	}
	return n
}

// blockRow is a row of a block, held by a ring until it is promoted or
// expires: the block is not filled again while a ring holds one of its rows.
type blockRow struct {
	blk *transform.Builder
	row int
}

// rolledGauges are the collectl gauges the diagnosis correlates against,
// which a rollup keeps of a degraded sample.
var rolledGauges = [...]string{"dsk_util", "cpu_user", "cpu_sys", "mem_dirty", "cpu_mhz"}

// degrade handles one timestamped row while below full fidelity: fold it
// into the rollup accumulators, and either retain it in the source's ring
// (AGGREGATE) or count it shed (SHED). True means a ring holds the row.
// Loader-owned.
func (f *fidelityRun) degrade(s *source, c *blockCells, blk *transform.Builder, row int, usEvent int64, st fidelity.State) bool {
	f.rollup(s, c, row, usEvent)
	if st == fidelity.Aggregate {
		r := f.rings[s]
		if r == nil {
			r = fidelity.NewRing[blockRow](f.opts.ringCap)
			f.rings[s] = r
		}
		before := r.Len()
		r.Push(usEvent, blockRow{blk, row})
		if r.Len() > before {
			f.ringRows.Add(1)
		} else {
			f.ringEvicted.Add(1)
		}
		return true
	}
	f.shedRows.Add(1)
	obsRowsShed.Add(1)
	return false
}

// rollup folds one row's curated metrics into the open accumulator cells
// for its rollup window.
func (f *fidelityRun) rollup(s *source, c *blockCells, row int, usEvent int64) {
	win := usEvent - modUS(usEvent, rollupWindowUS)
	fold := func(metric string, v float64) {
		k := aggKey{table: s.table, metric: metric, winUS: win}
		c := f.cells[k]
		if c == nil {
			c = &aggCell{min: v, max: v}
			f.cells[k] = c
		} else {
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
		}
		c.n++
		c.sum += v
	}
	if c.event {
		ua, ok1 := cell(c.ua, row, mscopedb.TInt)
		ud, ok2 := cell(c.ud, row, mscopedb.TInt)
		if ok1 && ok2 {
			fold("rt_us", float64(ud-ua))
		}
	} else {
		for i, m := range rolledGauges {
			if col := c.gauges[i]; row < len(col) && (col[row].Type == mscopedb.TInt || col[row].Type == mscopedb.TFloat) {
				fold(m, col[row].Float)
			}
		}
	}
	f.rolledUp.Add(1)
	obsRowsRolledUp.Add(1)
}

// flushRollup appends every accumulator cell whose window has fully closed
// behind the low watermark to TableRollup, in deterministic key order.
// final flushes everything.
func (p *Pipeline) flushRollup(lowUS int64, final bool) {
	f := p.fid
	if f == nil || len(f.cells) == 0 {
		return
	}
	var keys []aggKey
	for k := range f.cells {
		if final || k.winUS+rollupWindowUS <= lowUS {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.winUS != b.winUS {
			return a.winUS < b.winUS
		}
		if a.table != b.table {
			return a.table < b.table
		}
		return a.metric < b.metric
	})
	var sp selfobs.Span
	if p.loaderObs != nil {
		sp = p.loaderObs.Begin(selfobs.PipeLive, "fidelity", "rollup-flush", "")
	}
	t, err := p.rollupTable()
	if err != nil {
		p.recordLoadErr(err)
		return
	}
	for _, k := range keys {
		c := f.cells[k]
		if err := t.Append(k.table, k.metric, k.winUS, c.n, c.sum, c.max, c.min); err != nil {
			p.recordLoadErr(err)
			return
		}
		delete(f.cells, k)
		f.rollupRows.Add(1)
	}
	if p.loaderObs != nil {
		sp.End(int64(len(keys)), 0)
	}
}

func (p *Pipeline) rollupTable() (*mscopedb.Table, error) {
	if p.db.HasTable(TableRollup) {
		return p.db.Table(TableRollup)
	}
	return p.db.Create(TableRollup, []mscopedb.Column{
		{Name: "tbl", Type: mscopedb.TString},
		{Name: "metric", Type: mscopedb.TString},
		{Name: "win_us", Type: mscopedb.TInt},
		{Name: "n", Type: mscopedb.TInt},
		{Name: "v_sum", Type: mscopedb.TFloat},
		{Name: "v_max", Type: mscopedb.TFloat},
		{Name: "v_min", Type: mscopedb.TFloat},
	})
}

// promoteNeighbourhood retroactively appends every retained ring row whose
// event time falls inside [loUS, hiUS] — the anomaly neighbourhood of a
// flagged window — so BuildEvidence sees full-fidelity rows exactly where
// the verdict needs them. TakeRange marks rows taken, so overlapping
// neighbourhoods (or the same window retried across advances) promote each
// row at most once. Called from the detector on the loader goroutine.
func (p *Pipeline) promoteNeighbourhood(loUS, hiUS int64) {
	f := p.fid
	if f == nil {
		return
	}
	var sp selfobs.Span
	if p.loaderObs != nil {
		sp = p.loaderObs.Begin(selfobs.PipeLive, "fidelity", "promote", "")
	}
	var promoted int64
	for _, s := range p.snapshot() {
		r := f.rings[s]
		if r == nil {
			continue
		}
		rows := r.TakeRange(loUS, hiUS)
		if len(rows) == 0 {
			continue
		}
		// Consecutive rows of one block merge as one range.
		var err error
		for i := 0; i < len(rows) && err == nil; {
			j := i + 1
			for j < len(rows) && rows[j].blk == rows[i].blk && rows[j].row == rows[j-1].row+1 {
				j++
			}
			err = s.tgt.Merge(rows[i].blk, rows[i].row, rows[j-1].row+1)
			i = j
		}
		if err != nil {
			p.recordLoadErr(err)
			continue
		}
		promoted += int64(len(rows))
		s.rows.Add(int64(len(rows)))
		p.rowsTotal.Add(int64(len(rows)))
	}
	if promoted > 0 {
		f.promoted.Add(promoted)
		obsRowsPromoted.Add(promoted)
	}
	if p.loaderObs != nil {
		sp.End(promoted, 0)
	}
}

// expireRings frees ring rows that can no longer be promoted: a window is
// classified once its slice + grace (at most pad+grace) is behind the
// watermark, and its promote range reaches pad+grace before its start — so
// anything older than twice that horizon (plus a window), at the ceiling no
// grace exceeds, is out of reach of any future promotion.
func (p *Pipeline) expireRings(lowUS int64) {
	f := p.fid
	if f == nil {
		return
	}
	horizon := 2*(p.det.ceilingUS+core.ClassifyPad.Microseconds()) + p.det.windowUS
	cutoff := lowUS - horizon
	for _, r := range f.rings {
		if n := r.ExpireBefore(cutoff); n > 0 {
			f.ringRows.Add(int64(-n))
		}
	}
}

// recordLoadErr keeps the first loader-side failure, matching the append
// path's error policy.
func (p *Pipeline) recordLoadErr(err error) {
	p.mu.Lock()
	if p.loadErr == nil {
		p.loadErr = err
	}
	p.mu.Unlock()
}
