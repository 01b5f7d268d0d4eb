package stream

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Self-telemetry of the loader. A span per record would dominate the work
// being measured; a span per batch does not, so each batch the loader
// takes is one live/append/batch span (items: rows appended, errs: rows
// degraded or skipped) and one Add on the row counter. They no-op unless a
// selfobs collector is enabled.
var (
	obsRowsAppended   = selfobs.NewCounter(selfobs.PipeLive, "append", "rows_appended")
	obsWatermarkMoves = selfobs.NewCounter(selfobs.PipeLive, "watermark", "advances")
)

// Config parameterizes a live pipeline. Zero values select defaults.
type Config struct {
	// LogDir is the directory tailed for monitor logs. Required.
	LogDir string
	// DB receives the rows; pass a loaded warehouse to resume a previous
	// session (the ingest ledger checkpoints decide where tailing starts).
	// Nil opens a fresh one.
	DB *mscopedb.DB
	// Plan is the Parsing Declaration; nil uses the default.
	Plan *transform.Plan
	// ErrorBudget is the per-source quarantine budget (default 5%): a
	// source whose corrupt-record ratio exceeds it is rejected, exactly as
	// the batch quarantine policy rejects a file.
	ErrorBudget float64
	// channelCap bounds the records in flight between the parsers and the
	// loader (default 256; only this package's tests set it): a batch is
	// admitted while fewer than this many are queued, so the queue never
	// holds more than channelCap plus one batch. Backpressure: when the
	// loader lags, parsers block here, their pipes fill, and the tailers
	// stop reading — nothing buffers without bound. Stall events (a parser
	// finding the queue full) are counted and exported.
	channelCap int
	// Fidelity configures load-aware degradation; the zero value keeps
	// full fidelity unconditionally.
	Fidelity FidelityOptions
	// ConsumerDelay throttles the loader by this much per record — the
	// slow-consumer half of the chaos overload injector. Zero in
	// production.
	ConsumerDelay time.Duration
	// OnAlert, when set, receives each alert as it fires, from the loader
	// goroutine: it must not block on the pipeline itself.
	OnAlert func(Alert)

	// remote marks an engine fed over the network instead of by the tail
	// loop (set by NewRemote): no LogDir, no file discovery, no parsers —
	// sources are registered with OpenRemote and records injected with
	// RemoteSource.AppendBatch.
	remote bool
}

// minBudgetSamples is how many records a source must produce before the
// error budget can reject it — a handful of early corrupt lines is not a
// ratio.
const minBudgetSamples = 200

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.LogDir == "" && !out.remote {
		return out, fmt.Errorf("stream: Config.LogDir is required")
	}
	if out.DB == nil {
		out.DB = mscopedb.Open()
	}
	if out.Plan == nil {
		out.Plan = transform.DefaultPlan()
	}
	if err := transform.CheckBudget(out.ErrorBudget); err != nil {
		return out, fmt.Errorf("stream: Config.ErrorBudget: %w", err)
	}
	if out.ErrorBudget == 0 {
		out.ErrorBudget = transform.DefaultErrorBudget
	}
	if out.channelCap <= 0 {
		out.channelCap = 256
	}
	return out, nil
}

// rec is the unit that crosses from a parser (or a decoded wire batch) to
// the loader: a block of up to batchCap consecutive records of one source,
// already typed on the feeding goroutine, and their stamp. more marks a
// leading piece of a wire batch split at batchCap: the stamp belongs to the
// last piece. done, when set, is invoked by the loader after the whole
// batch is processed — the remote ingest path hangs its ack off it.
type rec struct {
	src *source
	blk *transform.Builder // Records rows; nil when there are none
	Batch
	more bool
	done func()
}

// batchCap bounds a rec. A parser fills one between two reads of its pipe,
// so under light load a batch is what one poll appended to the log; only a
// parser working through a backlog fills batches to the cap.
const batchCap = 64

// tailPoll is how often the tailers look for bytes appended to their logs.
const tailPoll = 10 * time.Millisecond

// Pipeline is the live ingest-and-detect engine. Start launches the source
// front end (file discovery, tailers, one parser goroutine per source) and
// the loader (append, watermark, detection). Stop drains everything —
// remaining bytes are read to EOF, partial lines flushed, parsers joined,
// final windows classified — and checkpoints per-source byte offsets in
// the ingest ledger.
type Pipeline struct {
	cfg   Config
	db    *mscopedb.DB
	wm    *Watermark
	det   *detector
	fid   *fidelityRun // nil when fidelity is off
	front *FrontEnd    // nil for a remote-fed engine

	recs chan rec
	// queued counts the records in recs (a batch counts for what it holds);
	// send blocks on qcond while it is at channelCap. Written under qmu.
	qmu    sync.Mutex
	qcond  *sync.Cond
	queued atomic.Int64

	dbReqs   chan func(*mscopedb.DB)
	loadDone chan struct{}

	rowsTotal atomic.Int64
	stalls    atomic.Int64 // backpressure stall events (channel found full)

	// What each online alert waited: window end → raise, and its grace.
	delayHist, graceHist promfmt.Histogram

	// loaderObs is the loader goroutine's span buffer, exposed so the
	// promotion path (called from the detector, on the loader) can record
	// spans without allocating a buffer per promotion.
	loaderObs *selfobs.Buf
	// cells is the loader's reused view of the block in hand.
	cells blockCells

	mu           sync.Mutex
	sources      []*source
	byPath       map[string]*source
	alerts       []Alert
	started      time.Time
	running      bool
	stopped      bool
	loadErr      error
	evidenceErrs int64  // detector passes whose evidence failed to build
	evidenceErr  string // the latest's why
}

// New builds a pipeline; Start actually runs it.
func New(cfg Config) (*Pipeline, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:      c,
		db:       c.DB,
		wm:       NewWatermark(faults.DefaultSkewMax.Microseconds()),
		det:      newDetector(c.DB, core.DefaultWindow, DefaultGrace, faults.DefaultSkewMax),
		recs:     make(chan rec, c.channelCap),
		dbReqs:   make(chan func(*mscopedb.DB)),
		loadDone: make(chan struct{}),
		byPath:   make(map[string]*source),
	}
	p.qcond = sync.NewCond(&p.qmu)
	if !c.remote {
		p.front = NewFrontEnd(FrontConfig{LogDir: c.LogDir, Plan: c.Plan, Poll: tailPoll,
			BatchCap: batchCap, Pipe: selfobs.PipeLive,
			Open: func(path, name string, b transform.Binding) (Sink, int64) {
				s := p.adopt(path, name, b)
				return Sink{Record: s.record, Deliver: s.deliver}, s.off.Load()
			}})
	}
	if c.Fidelity.enabled() {
		p.fid = newFidelityRun(c.Fidelity)
		// The detector promotes the anomaly neighbourhood out of the rings
		// before building evidence, so degraded-mode verdicts see exactly
		// the full-fidelity rows they correlate against.
		p.det.promote = p.promoteNeighbourhood
	}
	return p, nil
}

// DB returns the warehouse the pipeline loads. Only touch it after Stop:
// during the run it belongs to the loader goroutine — use WithDB for
// mid-run access.
func (p *Pipeline) DB() *mscopedb.DB { return p.db }

// WithDB runs fn with exclusive access to the warehouse and blocks
// until it returns. While the pipeline runs, fn executes on the loader
// goroutine between batches — ingest pauses for exactly the query's
// duration, and fn sees a consistent snapshot with no appender racing
// it. After the loader exits (Stop, or a remote drain) fn runs on the
// caller. This is what lets `mscope serve` query a live warehouse.
func (p *Pipeline) WithDB(fn func(db *mscopedb.DB)) {
	done := make(chan struct{})
	wrapped := func(db *mscopedb.DB) {
		defer close(done)
		fn(db)
	}
	select {
	case p.dbReqs <- wrapped:
		<-done
	case <-p.loadDone:
		fn(p.db)
	}
}

// Start launches the pipeline goroutines.
func (p *Pipeline) Start() {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.started = time.Now()
	p.mu.Unlock()
	if p.front != nil {
		p.front.Start()
	}
	go p.loader()
}

// Stop drains and joins the pipeline; safe to call once. It returns the
// first loader error (an append that failed), if any — parse-level damage
// is not an error here, it is quarantine policy.
func (p *Pipeline) Stop() error {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return fmt.Errorf("stream: pipeline not started")
	}
	already := p.stopped
	p.stopped = true
	p.mu.Unlock()
	if !already {
		// A remote engine's caller guarantees every feeder has quiesced
		// before Stop; the local one's front end is drained here.
		if p.front != nil {
			p.front.Stop()
		}
		close(p.recs)
	}
	<-p.loadDone
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadErr
}

// Alerts returns the alerts raised so far, in raise order.
func (p *Pipeline) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Alert, len(p.alerts))
	copy(out, p.alerts)
	return out
}

// resumableAtOffset reports whether a binding's format can restart
// mid-file: per-line formats resynchronize at any line boundary (a torn
// first line is quarantined), but anything that consumes a file header —
// collectl's column row, the slow log's HeaderLines — must re-read from
// byte zero (already-loaded records are then dropped by count instead).
func resumableAtOffset(b transform.Binding) bool {
	switch b.Parser {
	case "token", "lines":
		return b.Instructions.HeaderLines == 0
	default:
		return false
	}
}

// resumePoint consults the ingest ledger for where a source restarts:
// byte-resumable formats return the checkpointed offset and carry the
// consumed count forward; header-carrying formats re-read from zero and
// drop already-consumed records by count instead. The skip distance is
// the larger of the table's rows and the ledger's consumed count: equal
// for full-fidelity sessions, but a degraded session consumes (rolls up,
// sheds, promotes) far more records than it appends, and re-processing
// those would duplicate every previously promoted row.
func (p *Pipeline) resumePoint(s *source) int64 {
	off, known := p.db.LatestIngestOffset(s.path)
	if !known || off <= 0 {
		return 0
	}
	if resumableAtOffset(s.binding) {
		if n, ok := p.db.LatestIngestRows(s.path); ok {
			s.consumedBase.Store(n)
		}
		return off
	}
	var skip int64
	if p.db.HasTable(s.table) {
		if t, terr := p.db.Table(s.table); terr == nil {
			skip = int64(t.Rows())
		}
	}
	if n, ok := p.db.LatestIngestRows(s.path); ok && n > skip {
		skip = n
	}
	s.skipEntries.Store(skip)
	return 0
}

// adopt registers a source the engine has not seen: resolve its table and
// decide from the ingest ledger where reading resumes. That point is by
// definition the last applied offset, and consumedBase the record count
// behind it (zero for header formats, whose re-read recounts from scratch).
func (p *Pipeline) adopt(key, name string, b transform.Binding) *source {
	host := transform.HostOf(key, b)
	s := &source{
		p:       p,
		path:    key,
		name:    name,
		binding: b,
		table:   host + "_" + b.TableSuffix,
		host:    host,
		state:   StateActive,
		free:    make(chan *transform.Builder, 8),
	}
	s.tgt = transform.Target{DB: p.db, Table: s.table}
	s.off.Store(p.resumePoint(s))
	s.offRows.Store(s.consumedBase.Load())
	p.wm.Register(key)
	p.mu.Lock()
	p.sources = append(p.sources, s)
	p.byPath[key] = s
	p.mu.Unlock()
	return s
}

// snapshot returns the current source list.
func (p *Pipeline) snapshot() []*source {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*source, len(p.sources))
	copy(out, p.sources)
	return out
}

// send hands one batch to the loader. A queue at capacity is a
// backpressure stall — counted, then waited out. The wait is the pressure
// edge that stops the tailers, so the stall counter is exactly "times a
// feeder caught the loader behind".
func (p *Pipeline) send(r rec) {
	p.qmu.Lock()
	if p.queued.Load() >= int64(p.cfg.channelCap) {
		p.stalls.Add(1)
		obsStalls.Add(1)
		for p.queued.Load() >= int64(p.cfg.channelCap) {
			p.qcond.Wait()
		}
	}
	p.queued.Add(int64(r.Records))
	p.qmu.Unlock()
	// Blocks only behind a run of empty batches (bare stamps): fewer than
	// channelCap records were queued on admission.
	p.recs <- r
}

// loader is the single consumer: append (or degrade) rows, advance
// frontiers, enforce the error budget, drive the fidelity controller, and
// run the detector as the watermark moves. The PIT statistic and the
// watermark are fed for every processed record regardless of fidelity
// state — detection must keep working precisely when the pipeline is
// degraded, or degradation would be blindness.
func (p *Pipeline) loader() {
	defer close(p.loadDone)
	obs := selfobs.NewBuf()
	defer obs.Close()
	p.loaderObs = obs
	defer func() { p.loaderObs = nil }()
	var lastLow int64
load:
	for {
		select {
		case r, ok := <-p.recs:
			if !ok {
				break load
			}
			p.qmu.Lock()
			p.queued.Add(-int64(r.Records))
			p.qmu.Unlock()
			p.qcond.Broadcast()
			p.processBatch(r, obs, &lastLow)
			if r.done != nil {
				r.done()
			}
		case fn := <-p.dbReqs:
			// A WithDB caller borrows the warehouse between batches.
			fn(p.db)
		}
	}
	// Channel closed: every parser is done. Classify the remainder with
	// the gating relaxed — all evidence has arrived — then flush the open
	// rollup cells and checkpoint. Detection runs before the final flush
	// so promotion still finds its ring rows.
	p.detect(obs, "final", finalLow)
	p.flushRollup(finalLow, true)
	sp := obs.Begin(selfobs.PipeLive, "checkpoint", "final", "")
	p.checkpoint()
	// With a spill-backed warehouse, commit the segment store at the same
	// cut as the ledger rows just written; a crash after this point loses
	// nothing from the session. No-op for in-memory warehouses.
	if err := p.db.Checkpoint(); err != nil {
		p.recordLoadErr(err)
	}
	sp.End(int64(p.rowsTotal.Load()), 0)
}

// processBatch is the loader's work on one batch: load its records, take
// its stamp, and then the per-batch bookkeeping — the error budget, the
// fidelity controller and the detector trigger.
func (p *Pipeline) processBatch(r rec, obs *selfobs.Buf, lastLow *int64) {
	s, n := r.src, int64(r.Records)
	if p.cfg.ConsumerDelay > 0 {
		time.Sleep(time.Duration(n) * p.cfg.ConsumerDelay)
	}
	st, _ := s.status()
	loaded := st != StateRejected && (n == 0 || p.load(r, obs))
	// The stamp counts whatever the batch held, loaded or not: the offset
	// says how far the file was read.
	if !r.more {
		s.stamp(r.Batch)
	}
	if !loaded {
		return
	}
	if q := s.quarantined.Load(); q > 0 {
		total := s.processed.Load() + q
		if total >= minBudgetSamples && float64(q)/float64(total) > p.cfg.ErrorBudget {
			s.setState(StateRejected, fmt.Errorf(
				"stream: %s: corrupt-record ratio %.4f exceeds error budget %.4f (%d of %d)",
				s.name, float64(q)/float64(total), p.cfg.ErrorBudget, q, total))
			p.wm.Finish(s.path)
		}
	}
	if p.fid != nil {
		p.fid.sinceEval += int(n)
		if p.fid.sinceEval >= fidelityEvalEvery {
			p.fid.sinceEval = 0
			p.evalPressure()
		}
	}
	if low, ok := p.wm.Low(); ok && low != finalLow && low >= *lastLow+p.det.windowUS {
		*lastLow = low
		obsWatermarkMoves.Add(1)
		p.evalPressure()
		p.flushRollup(low, false)
		p.detect(obs, "advance", low)
		p.expireRings(low)
	}
}

// load appends one batch's block. Per row: read the event time and the
// front tier's PIT observation off the block's typed columns, and below full
// fidelity degrade the row if it has a clock. Per block: the resume skip of
// leading rows, one merge of each run of rows left to load, the counters
// and the watermark. False means the merge failed and the source with it.
func (p *Pipeline) load(r rec, obs *selfobs.Buf) bool {
	s, n := r.src, r.Records
	sp := obs.Begin(selfobs.PipeLive, "append", "batch", s.name)
	s.consumed.Add(int64(n))
	// The first skip records are a resume's re-read of what an earlier
	// session (or connection) already consumed; the window may end inside
	// the batch.
	skip := int(min(s.skipEntries.Load(), int64(n)))
	s.skipEntries.Add(int64(-skip))
	s.processed.Add(int64(n - skip))
	c := &p.cells
	c.read(s, r.blk)
	front := s.host == core.Tiers[0] && s.binding.TableSuffix == "event"
	fid := p.fidState()
	var frontier int64
	var err error
	lo, appended, retained := skip, 0, false // rows [lo, row) are still to merge
	for row := 0; row < n && err == nil; row++ {
		us, hasTS := c.clock(row)
		if hasTS {
			frontier = max(frontier, us)
		}
		if row < skip {
			continue
		}
		if front {
			ua, ok1 := cell(c.ua, row, mscopedb.TInt)
			ud, ok2 := cell(c.ud, row, mscopedb.TInt)
			if ok1 && ok2 {
				p.det.eps.PIT.Observe(ua, ud)
			}
		}
		// Below full fidelity a row with a clock is degraded; the rare one
		// without, which neither the ring nor the rollup grid could place,
		// is appended.
		if fid != fidelity.Full && hasTS {
			err, appended = s.tgt.Merge(r.blk, lo, row), appended+row-lo
			retained = p.fid.degrade(s, c, r.blk, row, us, fid) || retained
			lo = row + 1
		}
	}
	if err == nil {
		err, appended = s.tgt.Merge(r.blk, lo, n), appended+n-lo
	}
	if err != nil {
		s.fail(err)
		p.recordLoadErr(err)
		return false
	}
	if !retained { // no ring holds a row of it: the feeder may fill it again
		s.recycle(r.blk)
	}
	s.rows.Add(int64(appended))
	p.rowsTotal.Add(int64(appended))
	obsRowsAppended.Add(int64(appended))
	sp.End(int64(appended), int64(n-appended))
	if frontier > 0 {
		p.wm.Observe(s.path, frontier)
		s.frontierUS.Store(frontier)
	}
	return true
}

// blockCells is the block's columns the loader reads, row by row: the event
// time — departure (ud) for event tables, sample timestamp (ts) for collectl
// CSVs —, the ua that with ud makes a response time, and the gauges a
// rollup keeps. A row without a usable clock still loads, but cannot
// advance the watermark.
type blockCells struct {
	event      bool
	ts, ua, ud []mscopedb.Value
	gauges     [len(rolledGauges)][]mscopedb.Value
}

func (c *blockCells) read(s *source, blk *transform.Builder) {
	if c.event = s.binding.TableSuffix == "event"; c.event {
		c.ua, c.ud = blk.Values("ua", c.ua), blk.Values("ud", c.ud)
		return
	}
	c.ts = blk.Values("ts", c.ts)
	for i, name := range rolledGauges {
		c.gauges[i] = blk.Values(name, c.gauges[i])
	}
}

func (c *blockCells) clock(row int) (int64, bool) {
	if c.event {
		return cell(c.ud, row, mscopedb.TInt)
	}
	return cell(c.ts, row, mscopedb.TTime)
}

// cell is a row's value of a column, when it is of type typ.
func cell(col []mscopedb.Value, row int, typ mscopedb.Type) (int64, bool) {
	if row >= len(col) || col[row].Type != typ {
		return 0, false
	}
	return col[row].Int, true
}

// detect runs the detector against the watermark (finalLow at shutdown),
// records new alerts and notifies the callback. An evidence failure is
// counted and kept for /status; the next pass retries the due windows.
func (p *Pipeline) detect(obs *selfobs.Buf, stage string, low int64) {
	sp := obs.Begin(selfobs.PipeLive, "detect", stage, "")
	alerts, err := p.det.advance(low)
	if err != nil {
		p.mu.Lock()
		p.evidenceErrs, p.evidenceErr = p.evidenceErrs+1, err.Error()
		p.mu.Unlock()
	}
	sp.End(int64(len(alerts)), 0)
	for _, a := range alerts {
		if a.DelayUS > 0 {
			p.delayHist.Observe(time.Duration(a.DelayUS) * time.Microsecond)
			p.graceHist.Observe(time.Duration(a.GraceUS) * time.Microsecond)
		}
		p.mu.Lock()
		a.ID = len(p.alerts) + 1
		p.alerts = append(p.alerts, a)
		cb := p.cfg.OnAlert
		p.mu.Unlock()
		if cb != nil {
			cb(a)
		}
	}
}

// checkpoint writes the per-source ledger rows: the byte offset fed to
// the parser and the records consumed. Consumption — not table rows — is
// what a restarted header-format resume must skip: under degraded
// fidelity most consumed records were rolled up or shed rather than
// appended, and re-processing them would duplicate every promoted row.
// For full-fidelity sessions the two counts are identical, so the ledger
// column keeps its historical meaning there. A later `mscope ingest` over
// the same directory, or a restarted live session, resumes from here
// instead of duplicating rows.
func (p *Pipeline) checkpoint() {
	// Sorted by source path: single-process discovery already yields this
	// order, and remote sources — whose Open order depends on network
	// arrival — must checkpoint identically for the ledger to be
	// byte-equal across deployment shapes.
	snap := p.snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].path < snap[j].path })
	for _, s := range snap {
		s.setState(StateDone, nil)
		consumed := s.consumedBase.Load() + s.consumed.Load()
		if !p.db.HasTable(s.table) && consumed == 0 {
			continue
		}
		if err := p.db.RecordIngestAt(s.table, s.path, int(consumed),
			s.off.Load(), simtime.Epoch); err != nil {
			p.recordLoadErr(err)
		}
	}
}
