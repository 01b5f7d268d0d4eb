package stream

import (
	"bytes"
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
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
	s *source
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
	s := p.adopt(key, name, b)
	return &RemoteSource{s}, s.off.Load(), nil
}

// reopenRemote re-adopts a source after its agent reconnected. The resume
// arithmetic mirrors resumePoint, but against live counters instead of the
// ledger: the agent restarts from the last *applied* offset, so every
// record the loader consumed beyond it will arrive again and must be
// dropped by count — with the consumed base rolled back equally, so the
// final ledger totals match a never-interrupted session.
func (p *Pipeline) reopenRemote(s *source) (*RemoteSource, int64, error) {
	if st, _ := s.status(); st == stateFailed || st == stateRejected {
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
		off = s.off.Load()
		skip = total - s.offRows.Load()
	} else {
		// Header-carrying formats re-read from byte zero; offsets restart.
		off = 0
		skip = total
		s.off.Store(0)
		s.offRows.Store(0)
	}
	if skip > 0 {
		// Add, not Store: a rapid double-reconnect can reopen before an
		// earlier skip window has fully drained, and the residue still
		// refers to records the agent is about to ship yet again.
		s.skipEntries.Add(skip)
		s.consumedBase.Add(-skip)
	}
	// The agent reports its own session-cumulative quarantine count on each
	// batch; the engine's total so far composes with it additively.
	s.quarBase.Store(s.quarantined.Load())
	p.wm.Reopen(s.path)
	s.setState(stateActive, nil)
	return &RemoteSource{s}, off, nil
}

// Key returns the source's registry key — the agent-side file path.
func (r *RemoteSource) Key() string { return r.s.path }

// Table returns the warehouse table the source feeds.
func (r *RemoteSource) Table() string { return r.s.table }

// AppendBatch injects a decoded wire batch: consecutive parsed records,
// as text, and the agent's stamp — the byte offset they reach and its
// quarantine count, which the loader applies once the records are counted,
// exactly as it does a locally parsed batch's. The records are typed here,
// on the caller's goroutine, into blocks of batchCap that cross to the
// loader one at a time: each send blocks while the record queue is full,
// the same backpressure edge the local parsers hit, counted the same way.
// done is invoked from the loader goroutine once the batch has been fully
// processed; batches of one source complete in the order they were
// appended.
func (r *RemoteSource) AppendBatch(b *wire.Batch, done func()) {
	s := r.s
	s.pending.Add(1)
	var blk *transform.Builder
	n := 0
	// A record the builder refuses leaves its error in the block, which the
	// loader's merge reports and fails the source with.
	_ = b.EachRecord(func(r *parsers.Record) error {
		if n == batchCap {
			s.p.send(rec{src: s, blk: blk, Batch: Batch{Records: n}, more: true})
			blk, n = nil, 0
		}
		if blk == nil {
			blk = s.block()
		}
		n++
		return blk.Add(r)
	})
	s.p.send(rec{src: s, blk: blk, Batch: Batch{Records: n, Offset: b.Offset, Quarantined: b.Quarantined},
		done: func() {
			if done != nil {
				done()
			}
			s.pending.Add(-1)
		}})
}

// Fail marks the source terminally failed (the agent's parser died or its
// tailer hit an I/O error), as a local batch's Err does.
func (r *RemoteSource) Fail(msg string) {
	r.s.parseErrs.Add(1)
	r.s.fail(fmt.Errorf("stream: %s: %s", r.s.name, msg))
}

// Suspend releases the source's hold on the watermark without a terminal
// state change: a cleanly departing agent (Goodbye) whose sources will
// constrain window closure again if it reconnects and reopens them.
func (r *RemoteSource) Suspend() { r.s.p.wm.Finish(r.s.path) }

// SelfTrace renders a node's own spans through the selfobs log format and
// parses them into sink with the mScopeParser the plan binds to name, so
// what an agent or the collector ships of itself has exactly the schema a
// file ingest of the same log would load. It returns the rendered log's
// size, the offset that covers the records; a plan that does not bind
// name hands sink nothing.
func SelfTrace(obs *selfobs.Collector, plan *transform.Plan, name string, sink parsers.Sink) (int64, error) {
	b, ok := plan.Find(name)
	if !ok {
		return 0, nil
	}
	parser, err := parsers.Get(b.Parser)
	if err != nil {
		return 0, nil
	}
	var buf bytes.Buffer
	if _, err := obs.WriteLog(&buf); err != nil {
		return 0, err
	}
	return int64(buf.Len()), parser.ParseRecords(bytes.NewReader(buf.Bytes()), b.Instructions, sink, nil)
}
