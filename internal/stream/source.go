package stream

import (
	"sync"
	"sync/atomic"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Source states reported in Status.
const (
	StateActive   = "active"
	StateFailed   = "failed"   // strict parser or I/O error; table keeps its rows
	StateRejected = "rejected" // quarantine error budget breached
	StateDone     = "done"     // drained cleanly at shutdown
)

// Streamable reports whether the live pipeline tails a file: it must have
// a Parsing Declaration binding, and its format must carry per-record
// event times the watermark can track (the four event logs, the collectl
// CSVs — exactly the evidence the diagnosis consumes — and the selfobs
// span logs, which is what lets distributed agents ship their own
// telemetry to the collector as just another source).
func Streamable(plan *transform.Plan, name string) bool {
	b, ok := plan.Find(name)
	if !ok {
		return false
	}
	return b.TableSuffix == "event" || b.TableSuffix == "collectlcsv" ||
		b.TableSuffix == "selftrace"
}

// source is one log as the loader sees it, tailed here or on an agent's
// node: its target table, resume arithmetic and counters. The loader owns
// the target; cross-goroutine fields are atomic or mutex-guarded.
type source struct {
	p       *Pipeline
	path    string
	name    string // base name
	binding transform.Binding
	table   string
	host    string

	// skipEntries > 0 means the parse restarts from byte zero (the format
	// needs its header) and this many already-consumed records are dropped
	// before processing resumes — the row-level half of idempotent resume.
	// Atomic because a remote source's reopen (on the connection goroutine)
	// re-arms it while the loader owns the decrements.
	skipEntries atomic.Int64
	// consumedBase is the consumed-record count carried over from prior
	// sessions when the reader byte-resumes mid-file (re-read-from-zero
	// resumes re-count naturally and leave it 0). consumed + consumedBase
	// is what the checkpoint ledger records.
	consumedBase atomic.Int64

	// off is the byte offset stamped on the last applied batch, offRows the
	// consumed-record total at the moment it was stored, rotations the
	// reader's truncation count then. off is what the ledger checkpoints;
	// with offRows it lets a reconnecting agent resume mid-file with the
	// re-shipped overlap skipped exactly.
	off       atomic.Int64
	offRows   atomic.Int64
	rotations atomic.Int64
	// quarBase is the quarantine total when the current reader took over
	// (a reconnected agent counts from zero again); batches carry the
	// reader's own running count.
	quarBase atomic.Int64
	// pending counts this source's wire batches sitting between a remote
	// feeder and the loader; a reconnect's reopen waits for it to drain
	// before touching the resume arithmetic.
	pending atomic.Int64

	tgt transform.Target // loader-owned
	tbl *mscopedb.Table  // the table tgt feeds, once it exists; loader-owned
	// blk is the block a tailed file's parser goroutine is filling; free
	// holds the ones the loader has merged, for the feeder to fill again.
	blk  *transform.Builder
	free chan *transform.Builder

	rows        atomic.Int64
	quarantined atomic.Int64
	parseErrs   atomic.Int64 // unrecoverable parser failures (0 or 1)
	frontierUS  atomic.Int64
	// consumed counts every record the loader drained from this source
	// this session, including resume-skips; processed excludes the skips.
	// Under degraded fidelity processed > rows: consumed records may be
	// rolled up or shed instead of appended, which is exactly why the
	// ledger checkpoint records consumption, not table rows.
	consumed  atomic.Int64
	processed atomic.Int64

	mu    sync.Mutex
	state string
	err   error
}

func (s *source) setState(state string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Terminal states stick: a budget rejection is not overwritten by the
	// shutdown drain marking everything done.
	if s.state == StateFailed || s.state == StateRejected {
		return
	}
	s.state = state
	s.err = err
}

func (s *source) status() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.err
}

// fail marks the source terminally failed: the table keeps its rows, the
// watermark stops waiting.
func (s *source) fail(err error) {
	s.setState(StateFailed, err)
	s.p.wm.Finish(s.path)
}

// block is an empty block to type the source's records into.
func (s *source) block() *transform.Builder {
	select {
	case b := <-s.free:
		return b
	default:
		return new(transform.Builder)
	}
}

// recycle readies a merged block to be filled again; past a few spare
// blocks the rest are dropped.
func (s *source) recycle(b *transform.Builder) {
	b.Reset()
	select {
	case s.free <- b:
	default:
	}
}

// record is a tailed file's record sink: the record is typed into the block
// in hand, on the parser goroutine.
func (s *source) record(r *parsers.Record) error {
	if s.blk == nil {
		s.blk = s.block()
	}
	return s.blk.Add(r)
}

// deliver is a tailed file's batch sink: the block crosses to the loader,
// which blocks while the record queue is full.
func (s *source) deliver(b Batch) bool {
	s.p.send(rec{src: s, blk: s.blk, Batch: b})
	s.blk = nil
	if b.Err != nil {
		s.parseErrs.Add(1)
		s.fail(b.Err)
	}
	st, _ := s.status()
	return st == StateActive
}

// stamp applies what a batch says of its source once its records are
// counted: the reader's quarantine total, and the offset its records reach.
// The rows stamp must count exactly the records behind the offset, so an
// offset that does not advance is ignored — a batch cut short of a line
// boundary re-stamps the previous one, whose record count was captured when
// it first applied — unless the file was truncated and offsets restarted.
func (s *source) stamp(b Batch) {
	s.quarantined.Store(s.quarBase.Load() + b.Quarantined)
	if b.Offset > s.off.Load() || b.Rotations != s.rotations.Load() {
		s.offRows.Store(s.consumedBase.Load() + s.consumed.Load())
		s.off.Store(b.Offset)
		s.rotations.Store(b.Rotations)
	}
}
