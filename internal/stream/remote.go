package stream

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/transform"
)

// ResumeDenied is the resume offset returned for a source the engine has
// terminally failed or rejected: the agent must stop shipping it. On the
// wire it travels as Resume.Offset = -1.
const ResumeDenied int64 = -1

// NewRemote builds a pipeline fed over the network instead of by the tail
// loop: no LogDir, no file discovery, no parsers. The collector registers
// sources with OpenRemote and injects already-parsed records with
// RemoteSource.AppendBatch; everything downstream — appenders, watermark,
// fidelity controller, online detector, ledger checkpoint — is the exact
// single-process engine, which is what makes the distributed deployment
// byte-equal to local ingest.
func NewRemote(cfg Config) (*Pipeline, error) {
	cfg.remote = true
	return New(cfg)
}

// RemoteSource is one agent-shipped log adopted by a remote engine. A new
// value is handed out per (re)open — per agent connection — but all state
// lives on the underlying source, so reconnects resume exactly.
type RemoteSource struct {
	p *Pipeline
	s *source
	// quarBase is the engine's quarantine total at adoption; the agent
	// reports its own session-cumulative count on each batch, and the two
	// compose additively across agent restarts.
	quarBase int64
}

// OpenRemote registers (or re-adopts) an agent's source under key — the
// agent-side file path, which doubles as the ledger identity — and returns
// the byte offset the agent should resume tailing from. A key already
// known to the engine is a reconnect: the resume offset then reflects the
// last applied batch, and the re-shipped overlap is dropped by count so no
// row duplicates. A ResumeDenied offset (nil RemoteSource, nil error)
// means the source is terminally failed or rejected here.
func (p *Pipeline) OpenRemote(key, name string) (*RemoteSource, int64, error) {
	if !p.cfg.remote {
		return nil, 0, fmt.Errorf("stream: OpenRemote on a local pipeline")
	}
	p.mu.Lock()
	existing := p.byPath[key]
	p.mu.Unlock()
	if existing != nil {
		return p.reopenRemote(existing)
	}
	if !Streamable(p.cfg.Plan, name) {
		return nil, 0, fmt.Errorf("stream: %s is not a streamable source", name)
	}
	b, _ := p.cfg.Plan.Find(name)
	if _, err := parsers.Get(b.Parser); err != nil {
		return nil, 0, err
	}
	host := transform.HostOf(key, b)
	s := &source{
		path:    key,
		name:    name,
		binding: b,
		table:   host + "_" + b.TableSuffix,
		host:    host,
		state:   StateActive,
	}
	offset := p.resumePoint(s)
	// The resume point is by definition the last applied offset, and
	// consumedBase the record count behind it (zero for header formats,
	// whose re-read recounts from scratch).
	s.remoteOff.Store(offset)
	s.remoteRows.Store(s.consumedBase.Load())
	p.wm.Register(key)
	p.mu.Lock()
	p.sources = append(p.sources, s)
	p.byPath[key] = s
	p.mu.Unlock()
	return &RemoteSource{p: p, s: s}, offset, nil
}

// reopenRemote re-adopts a source after its agent reconnected. The resume
// arithmetic mirrors resumePoint, but against live counters instead of the
// ledger: the agent restarts from the last *applied* offset, so every
// record the loader consumed beyond it will arrive again and must be
// dropped by count — with the consumed base rolled back equally, so the
// final ledger totals match a never-interrupted session.
func (p *Pipeline) reopenRemote(s *source) (*RemoteSource, int64, error) {
	if st, _ := s.status(); st == StateFailed || st == StateRejected {
		return nil, ResumeDenied, nil
	}
	// Quiesce: the dead connection's records may still sit in the channel;
	// counters are only coherent once the loader has drained them.
	for deadline := time.Now().Add(30 * time.Second); s.pending.Load() != 0; {
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("stream: %s: reopen stalled draining in-flight records", s.name)
		}
		time.Sleep(time.Millisecond)
	}
	total := s.consumedBase.Load() + s.consumed.Load()
	var off, skip int64
	if resumableAtOffset(s.binding) {
		off = s.remoteOff.Load()
		skip = total - s.remoteRows.Load()
	} else {
		// Header-carrying formats re-read from byte zero; offsets restart.
		off = 0
		skip = total
		s.remoteOff.Store(0)
		s.remoteRows.Store(0)
	}
	if skip > 0 {
		// Add, not Store: a rapid double-reconnect can reopen before an
		// earlier skip window has fully drained, and the residue still
		// refers to records the agent is about to ship yet again.
		s.skipEntries.Add(skip)
		s.consumedBase.Add(-skip)
	}
	p.wm.Reopen(s.path)
	s.setState(StateActive, nil)
	return &RemoteSource{p: p, s: s, quarBase: s.quarantined.Load()}, off, nil
}

// Key returns the source's registry key — the agent-side file path.
func (r *RemoteSource) Key() string { return r.s.path }

// Table returns the warehouse table the source feeds.
func (r *RemoteSource) Table() string { return r.s.table }

// AppendBatch injects consecutive parsed records — a decoded wire batch —
// whose entries the engine then owns. They cross to the loader batchCap at
// a time: each send blocks while the record queue is full, the same
// backpressure edge the local parsers hit, counted the same way. done is
// invoked from the loader goroutine once the last record has been fully
// processed (at once, on the caller's, for an empty batch).
func (r *RemoteSource) AppendBatch(entries []mxml.Entry, done func()) {
	n := int64(len(entries))
	if n == 0 {
		if done != nil {
			done()
		}
		return
	}
	r.s.pending.Add(n)
	for len(entries) > batchCap {
		r.p.send(rec{src: r.s, entries: entries[:batchCap]})
		entries = entries[batchCap:]
	}
	r.p.send(rec{src: r.s, entries: entries, done: func() {
		if done != nil {
			done()
		}
		r.s.pending.Add(-n)
	}})
}

// SetCommitted records that every record up to the agent's byte offset has
// been handed to the loader — the durable resume point a reconnect gets.
// Call it from a batch's done callback (or with nothing in
// flight): the rows stamp must count exactly the records behind off. A
// non-advancing offset is ignored: a batch split mid-cycle re-stamps the
// previous offset, whose record count was captured when it first applied.
func (r *RemoteSource) SetCommitted(off int64) {
	if off <= r.s.remoteOff.Load() {
		return
	}
	r.s.remoteRows.Store(r.s.consumedBase.Load() + r.s.consumed.Load())
	r.s.remoteOff.Store(off)
}

// SetQuarantined folds the agent's session-cumulative quarantine count
// into the engine's view of the source; the error budget then applies
// exactly as it does to a locally parsed file.
func (r *RemoteSource) SetQuarantined(sessionTotal int64) {
	r.s.quarantined.Store(r.quarBase + sessionTotal)
}

// Fail marks the source terminally failed (the agent's parser died or its
// tailer hit an I/O error) — mirroring the local parse-failure path: the
// table keeps its rows, the watermark stops waiting.
func (r *RemoteSource) Fail(msg string) {
	r.s.parseErrs.Add(1)
	r.s.setState(StateFailed, fmt.Errorf("stream: %s: %s", r.s.name, msg))
	r.p.wm.Finish(r.s.path)
}

// Suspend releases the source's hold on the watermark without a terminal
// state change: a cleanly departing agent (Goodbye) whose sources will
// constrain window closure again if it reconnects and reopens them.
func (r *RemoteSource) Suspend() { r.p.wm.Finish(r.s.path) }

// FidelityState is the pipeline's current fidelity level — Full when the
// degradation subsystem is disabled. The collector broadcasts it to
// agents so a pressured central store degrades shipping at the edge.
func (p *Pipeline) FidelityState() fidelity.State { return p.fidState() }

// QueueFill is the fill fraction of the record queue — the rawest of the
// pressure signals, the fidelity controller's and the collector's Control
// frames'. The one batch admitted past ChannelCap does not read as more
// than full.
func (p *Pipeline) QueueFill() float64 {
	return min(1, float64(p.queued.Load())/float64(p.cfg.ChannelCap))
}
