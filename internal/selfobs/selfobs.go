// Package selfobs is milliScope's own instrumentation layer: a
// lock-cheap span and counter collector the framework threads through its
// ingest, streaming and diagnosis hot paths, applying the paper's central
// discipline — fine-grained monitoring at negligible overhead — to the
// monitor itself.
//
// Design constraints, in priority order:
//
//   - Disabled is free. Every entry point first loads one atomic pointer;
//     when no collector is installed the call returns a zero value and
//     allocates nothing (TestDisabledZeroAlloc pins this with
//     testing.AllocsPerRun, and `make overhead-check` gates the enabled
//     cost against the paper's own ≤3% bar).
//   - Enabled is lock-free on the hot path. Goroutines that emit many
//     spans own a Buf — a private record slice appended without any
//     synchronization — and hand it back to the collector once, when the
//     goroutine finishes. One-shot call sites use the package-level Begin,
//     which takes the collector mutex only at End.
//   - Timestamps are monotonic. Span durations come from the runtime's
//     monotonic clock (time.Since against the collector's anchor), so
//     wall-clock steps cannot produce negative spans.
//
// Spans are rendered as a milliScope-native timestamped token log (see
// FormatLine) with its own registered mScopeParser, so `mscope ingest`
// loads the framework's telemetry into mScopeDB like any other monitor
// log and `mscope selftrace` renders a critical-path breakdown from the
// warehouse rows.
package selfobs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline names used across the instrumented subsystems. Call sites pass
// these constants (never computed strings) so the disabled path stays
// allocation-free — cmd/selfobslint enforces it.
const (
	PipeIngest    = "ingest"
	PipeLive      = "live"
	PipeDiagnose  = "diagnose"
	PipeTrace     = "trace"
	PipeAgent     = "agent"
	PipeCollector = "collector"
	PipeDB        = "mscopedb"
	PipeServe     = "serve"
)

// Rec is one self-telemetry record: a completed span or a counter
// snapshot. StartNS is monotonic nanoseconds since the collector was
// enabled; the wall timestamp is reconstructed from the collector epoch
// at render time.
type Rec struct {
	// Kind is "span" or "counter".
	Kind string
	// Pipeline is the instrumented subsystem (PipeIngest, PipeLive, ...).
	Pipeline string
	// Stage is the pipeline stage ("parse", "append", "detect", ...).
	Stage string
	// Span labels the executor: a worker ("w3"), source, or counter name. Never empty in rendered output ("-" placeholder).
	Span string
	// File is the subject file's base name, when the span has one.
	File string
	// StartNS is the span start, monotonic ns since Enable.
	StartNS int64
	// DurNS is the span duration in ns (0 for counters).
	DurNS int64
	// Items counts the units processed (records, bytes, windows; the
	// counter value for Kind "counter").
	Items int64
	// Errs counts failures or quarantined units inside the span.
	Errs int64
}

// Collector accumulates records for one enabled session.
type Collector struct {
	batch string
	epoch time.Time // wall-clock zero for rendered timestamps
	base  time.Time // monotonic anchor for StartNS / DurNS

	mu    sync.Mutex
	recs  []Rec
	spans int
}

// active is the installed collector; nil means disabled. One atomic load
// is the entire disabled-path cost of every API entry point.
var active atomic.Pointer[Collector]

// Enable installs a fresh collector and returns it. batch labels every
// record of the session (it becomes the `batch=` token in the log, the
// grouping key of `mscope selftrace`); epoch is the wall-clock zero
// rendered timestamps count from — pass time.Now() in production, a fixed
// epoch in deterministic tests. Counters reset to zero.
func Enable(batch string, epoch time.Time) *Collector {
	c := &Collector{batch: batch, epoch: epoch, base: time.Now()}
	resetCounters()
	active.Store(c)
	return c
}

// Disable uninstalls the collector and returns it (nil when none was
// installed) so the caller can still WriteLog the gathered records.
func Disable() *Collector {
	c := active.Load()
	active.Store(nil)
	return c
}

// NewCollector builds a standalone collector that is NOT installed as
// the process-global one. Subsystems that need their telemetry
// attributed to a specific node — several agents and a collector
// sharing one test process, say — hold their own instance and open
// spans with the collector-bound Begin. Counters stay global and are
// not reset.
func NewCollector(batch string, epoch time.Time) *Collector {
	return &Collector{batch: batch, epoch: epoch, base: time.Now()}
}

// Begin opens a one-shot span on this collector, bypassing the global
// gate. A nil receiver returns the inert zero Span, so call sites can
// hold a nil *Collector when their telemetry is off.
func (c *Collector) Begin(pipeline, stage, span, file string) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, started: true, rec: Rec{
		Kind: "span", Pipeline: pipeline, Stage: stage, Span: span,
		File: file, StartNS: c.now(),
	}}
}

// Batch returns the session label given to Enable.
func (c *Collector) Batch() string { return c.batch }

// now returns monotonic ns since Enable.
func (c *Collector) now() int64 { return int64(time.Since(c.base)) }

// record appends one finished record under the collector mutex.
func (c *Collector) record(r Rec) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.spans++
	c.mu.Unlock()
}

// Len returns the number of records flushed to the collector so far.
// Records still held by open Bufs are not counted until Buf.Close.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Span is an open span. The zero Span (returned by every Begin while
// disabled) is inert: End on it does nothing. Span is a value — it lives
// on the caller's stack and allocates nothing.
type Span struct {
	c       *Collector
	b       *Buf
	rec     Rec
	started bool
}

// Begin opens a one-shot span recorded directly on the collector; End
// takes the collector mutex once. Use a Buf instead on paths that emit
// many spans per goroutine.
func Begin(pipeline, stage, span, file string) Span {
	c := active.Load()
	if c == nil {
		return Span{}
	}
	return Span{c: c, started: true, rec: Rec{
		Kind: "span", Pipeline: pipeline, Stage: stage, Span: span,
		File: file, StartNS: c.now(),
	}}
}

// End closes the span with the units it processed and the failures it
// absorbed. No-op on the zero Span.
func (s Span) End(items, errs int64) {
	if !s.started {
		return
	}
	s.rec.DurNS = s.c.now() - s.rec.StartNS
	s.rec.Items = items
	s.rec.Errs = errs
	if s.b != nil {
		s.b.recs = append(s.b.recs, s.rec)
		return
	}
	s.c.record(s.rec)
}

// Buf is a per-goroutine span buffer: Begin/End append to a private
// slice with no synchronization; Close hands the batch to the collector
// under one mutex acquisition. A nil *Buf (what NewBuf returns while
// disabled) is inert — every method is a no-op — so call sites need no
// enabled check of their own.
type Buf struct {
	c    *Collector
	recs []Rec
}

// NewBuf returns a buffer bound to the active collector, or nil while
// disabled. The returned Buf must stay goroutine-local until Close.
func NewBuf() *Buf {
	c := active.Load()
	if c == nil {
		return nil
	}
	return &Buf{c: c}
}

// Begin opens a span that will be recorded into this buffer at End.
func (b *Buf) Begin(pipeline, stage, span, file string) Span {
	if b == nil {
		return Span{}
	}
	return Span{c: b.c, b: b, started: true, rec: Rec{
		Kind: "span", Pipeline: pipeline, Stage: stage, Span: span,
		File: file, StartNS: b.c.now(),
	}}
}

// Close flushes the buffer into the collector. Safe to call on nil and
// more than once; records flush at most once.
func (b *Buf) Close() {
	if b == nil || len(b.recs) == 0 {
		return
	}
	b.c.mu.Lock()
	b.c.recs = append(b.c.recs, b.recs...)
	b.c.spans += len(b.recs)
	b.c.mu.Unlock()
	b.recs = nil
}

// Counter is a process-global atomic counter registered once at package
// init. Add is a single atomic load plus (when enabled) one atomic add —
// cheap enough for per-record call sites the span layer would swamp.
// Enable resets every registered counter so each session's log carries
// session-local values.
type Counter struct {
	pipeline, stage, name string
	v                     atomic.Int64
}

var (
	countersMu sync.Mutex
	counters   []*Counter
)

// NewCounter registers a counter under a pipeline and stage. Call it from
// package variable initializers, not hot paths.
func NewCounter(pipeline, stage, name string) *Counter {
	c := &Counter{pipeline: pipeline, stage: stage, name: name}
	countersMu.Lock()
	counters = append(counters, c)
	countersMu.Unlock()
	return c
}

// Add increments the counter when a collector is installed.
func (c *Counter) Add(n int64) {
	if active.Load() == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current counter value.
func (c *Counter) Value() int64 { return c.v.Load() }

func resetCounters() {
	countersMu.Lock()
	defer countersMu.Unlock()
	for _, c := range counters {
		c.v.Store(0)
	}
}

// snapshotCounters renders the non-zero registered counters as Recs
// stamped at the collector's current elapsed time.
func (c *Collector) snapshotCounters() []Rec {
	countersMu.Lock()
	defer countersMu.Unlock()
	now := c.now()
	var out []Rec
	for _, ctr := range counters {
		v := ctr.v.Load()
		if v == 0 {
			continue
		}
		out = append(out, Rec{
			Kind: "counter", Pipeline: ctr.pipeline, Stage: ctr.stage,
			Span: ctr.name, StartNS: now, Items: v,
		})
	}
	return out
}
