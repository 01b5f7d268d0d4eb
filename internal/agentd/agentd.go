// Package agentd is the per-node half of the distributed deployment: one
// agent process per monitored node tails that node's logs with the exact
// machinery `mscope live` uses locally — the rotation-aware Tailer, the
// tokenizing mScopeParsers, degraded-mode quarantine — and ships the
// parsed records to the central collector as checkpointed column batches
// over the wire protocol.
//
// The agent holds no durable state of its own. The collector's applied
// byte offset is the only checkpoint: every (re)connection opens each
// source and is told where to resume tailing, so an agent killed at any
// instant — mid-batch, mid-cycle, mid-handshake — restarts with zero
// duplicate and zero lost rows. Flow control is credit-based: the
// collector grants a record window at handshake and returns credits as
// batches are applied, so a slow collector stops the agent's tailers (the
// same backpressure edge the local pipeline has) instead of growing an
// unbounded buffer.
package agentd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
)

// Self-telemetry counters; free when no collector is enabled.
var (
	obsBatches    = selfobs.NewCounter(selfobs.PipeAgent, "ship", "batches")
	obsRecords    = selfobs.NewCounter(selfobs.PipeAgent, "ship", "records")
	obsReconnects = selfobs.NewCounter(selfobs.PipeAgent, "conn", "reconnects")
)

// Config parameterizes one agent. Zero values select defaults.
type Config struct {
	// ID is the agent's stable identity (typically the node name). Required.
	ID string
	// Token authenticates against the collector; both sides must agree.
	Token string
	// Network and Addr name the collector endpoint ("tcp" host:port or
	// "unix" socket path). Ignored when Dial is set.
	Network, Addr string
	// Dial overrides the endpoint — the tests inject in-memory and fault-
	// wrapped connections here.
	Dial func() (net.Conn, error)
	// LogDir is the directory this node's monitors write. Required.
	LogDir string
	// Plan is the Parsing Declaration; nil uses the default.
	Plan *transform.Plan
	// Poll is the tailer poll interval (default 10ms).
	Poll time.Duration
	// Own filters which streamable files this agent ships; nil means all.
	// In a real deployment each node only has its own logs; the tests use
	// it to split one directory across N agents.
	Own func(name string) bool
	// MaxBatchRecords caps records per batch frame (default 512). It must
	// stay at or below the collector's credit window or a large poll cycle
	// could never acquire enough credits to ship.
	MaxBatchRecords int
	// ReconnectBase/ReconnectMax bound the dial backoff (50ms–2s default).
	ReconnectBase, ReconnectMax time.Duration
	// SelfTrace records this agent's own spans (opens, ships, drain) in a
	// node-local selfobs collector and ships them at drain as one final
	// synthetic source named "<ID>_selftrace.log" — the collector's
	// warehouse then holds every node's telemetry with per-node tables,
	// which is what `mscope selftrace --fleet` renders.
	SelfTrace bool
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.ID == "" {
		return out, fmt.Errorf("agentd: Config.ID is required")
	}
	if out.LogDir == "" {
		return out, fmt.Errorf("agentd: Config.LogDir is required")
	}
	if out.Dial == nil && out.Addr == "" {
		return out, fmt.Errorf("agentd: collector address required")
	}
	if out.Network == "" {
		out.Network = "tcp"
	}
	if out.Plan == nil {
		out.Plan = transform.DefaultPlan()
	}
	if out.Poll <= 0 {
		out.Poll = 10 * time.Millisecond
	}
	if out.MaxBatchRecords <= 0 {
		out.MaxBatchRecords = 512
	}
	if out.ReconnectBase <= 0 {
		out.ReconnectBase = 50 * time.Millisecond
	}
	if out.ReconnectMax <= 0 {
		out.ReconnectMax = 2 * time.Second
	}
	return out, nil
}

// Agent is one per-node shipping daemon. Start launches the connection
// loop; Stop drains every source to EOF, ships the remainder, waits for
// all acks and says Goodbye. Kill is the crash injector: it drops the
// connection and the loops with no drain at all, which is exactly what
// the resume protocol must survive.
type Agent struct {
	cfg Config
	// obs is the agent's own span collector (nil unless Config.SelfTrace);
	// standalone, not the process-global one, so several agents in one
	// test process keep their telemetry separate.
	obs *selfobs.Collector

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	killed   atomic.Bool
	conn     atomic.Value // net.Conn of the live session, for Kill

	// denied and failed are agent-lifetime source blocklists: the
	// collector terminally rejected the source, or its parser died here.
	bmu    sync.Mutex
	denied map[string]bool
	failed map[string]bool

	mu       sync.Mutex
	runErr   error // fatal (auth) error, surfaced by Stop
	lastCtrl wire.Control

	// Counters exported as Prometheus families.
	batchesSent  atomic.Int64
	recordsSent  atomic.Int64
	acksReceived atomic.Int64
	reconnects   atomic.Int64
	dialErrors   atomic.Int64
	wireTx       atomic.Int64
	wireRx       atomic.Int64
	quarantined  atomic.Int64
	liveSources  atomic.Int64
	creditsGauge atomic.Int64
}

// New validates the config and builds an agent; Start runs it.
func New(cfg Config) (*Agent, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:    c,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		denied: make(map[string]bool),
		failed: make(map[string]bool),
	}
	if c.SelfTrace {
		a.obs = selfobs.NewCollector(c.ID, time.Now())
	}
	return a, nil
}

// Start launches the connect/ship loop.
func (a *Agent) Start() { go a.run() }

// Stop drains and disconnects; it returns the fatal session error, if
// any (a rejected handshake). Transient connection failures are not
// errors — surviving them is the job.
func (a *Agent) Stop() error {
	a.stopOnce.Do(func() { close(a.stopCh) })
	<-a.doneCh
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runErr
}

// Done reports when the connect/ship loop has exited for good. It only
// closes on Stop, Kill, or a fatal (auth) error — never on a transient
// disconnect, which the loop survives by reconnecting. Callers that
// block on outside signals (the CLI) select on this too, so a rejected
// handshake surfaces as an exit instead of a hang.
func (a *Agent) Done() <-chan struct{} { return a.doneCh }

// Kill simulates a crash: the connection and all loops die immediately,
// shipping nothing further. The soak test restarts a fresh Agent over
// the same LogDir and asserts zero duplicate rows.
func (a *Agent) Kill() {
	a.killed.Store(true)
	a.stopOnce.Do(func() { close(a.stopCh) })
	if nc, ok := a.conn.Load().(net.Conn); ok && nc != nil {
		nc.Close()
	}
	<-a.doneCh
}

func (a *Agent) stopping() bool {
	select {
	case <-a.stopCh:
		return true
	default:
		return false
	}
}

func (a *Agent) dial() (net.Conn, error) {
	if a.cfg.Dial != nil {
		return a.cfg.Dial()
	}
	return net.DialTimeout(a.cfg.Network, a.cfg.Addr, 5*time.Second)
}

// sleepOrStop waits d; false means stop was requested meanwhile.
func (a *Agent) sleepOrStop(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.stopCh:
		return false
	case <-t.C:
		return true
	}
}

func (a *Agent) run() {
	defer close(a.doneCh)
	delay := a.cfg.ReconnectBase
	first := true
	for {
		if a.stopping() {
			return
		}
		nc, err := a.dial()
		if err != nil {
			a.dialErrors.Add(1)
			if !a.sleepOrStop(delay) {
				return
			}
			if delay *= 2; delay > a.cfg.ReconnectMax {
				delay = a.cfg.ReconnectMax
			}
			continue
		}
		if !first {
			a.reconnects.Add(1)
			obsReconnects.Add(1)
		}
		first = false
		delay = a.cfg.ReconnectBase
		err = a.session(nc)
		if a.stopping() {
			return
		}
		if err == errRejected {
			return // fatal; runErr already recorded
		}
		if !a.sleepOrStop(delay) {
			return
		}
	}
}

var errRejected = fmt.Errorf("agentd: handshake rejected")

// session drives one connection from handshake to drain or death. All
// per-source state (tailers, parser pipes, pending records) is scoped to
// the session: a reconnect rebuilds everything from the collector's
// resume offsets, which is what makes the crash story simple.
type session struct {
	a *Agent
	c *wire.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	credits int64
	// outstanding counts unacked batches; Goodbye waits for zero so the
	// collector retires the connection knowing everything is applied.
	outstanding int64
	dead        bool
	deadErr     error
	deadCh      chan struct{}
	resumes     map[uint32]chan int64

	sources []*agentSource
	byPath  map[string]*agentSource
	nextID  uint32
}

func (a *Agent) session(nc net.Conn) error {
	a.conn.Store(nc)
	defer nc.Close()
	c := wire.NewConn(wire.CountingConn{Conn: nc, Tx: &a.wireTx, Rx: &a.wireRx})
	if err := c.Write(wire.TypeHello, wire.EncodeHello(wire.Hello{
		Version: wire.Version, AgentID: a.cfg.ID, Token: a.cfg.Token,
	})); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	typ, payload, err := c.Read()
	if err != nil {
		return err
	}
	if typ != wire.TypeHelloAck {
		return fmt.Errorf("agentd: expected HelloAck, got frame type %d", typ)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return err
	}
	if !ack.OK {
		a.mu.Lock()
		a.runErr = fmt.Errorf("agentd: collector rejected handshake: %s", ack.Reason)
		a.mu.Unlock()
		return errRejected
	}
	s := &session{
		a:       a,
		c:       c,
		credits: ack.Credit,
		deadCh:  make(chan struct{}),
		resumes: make(map[uint32]chan int64),
		byPath:  make(map[string]*agentSource),
	}
	s.cond = sync.NewCond(&s.mu)
	a.creditsGauge.Store(ack.Credit)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.reader()
	}()
	err = s.loop()
	nc.Close() // unblocks the reader if the loop failed first
	<-readerDone
	s.teardown()
	a.liveSources.Store(0)
	return err
}

// fail marks the session dead and wakes every waiter.
func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return
	}
	s.dead = true
	s.deadErr = err
	close(s.deadCh)
	s.cond.Broadcast()
}

// reader dispatches collector frames: acks return credits, resumes
// answer opens, controls carry the fidelity state downstream.
func (s *session) reader() {
	for {
		typ, payload, err := s.c.Read()
		if err != nil {
			s.fail(err)
			return
		}
		switch typ {
		case wire.TypeAck:
			ack, err := wire.DecodeAck(payload)
			if err != nil {
				s.fail(err)
				return
			}
			s.a.acksReceived.Add(1)
			s.mu.Lock()
			s.credits += ack.Credit
			s.outstanding--
			s.a.creditsGauge.Store(s.credits)
			s.cond.Broadcast()
			s.mu.Unlock()
		case wire.TypeResume:
			r, err := wire.DecodeResume(payload)
			if err != nil {
				s.fail(err)
				return
			}
			s.mu.Lock()
			ch := s.resumes[r.SourceID]
			s.mu.Unlock()
			if ch != nil {
				ch <- r.Offset
			}
		case wire.TypeControl:
			ctl, err := wire.DecodeControl(payload)
			if err != nil {
				s.fail(err)
				return
			}
			s.a.mu.Lock()
			s.a.lastCtrl = ctl
			s.a.mu.Unlock()
		default:
			s.fail(fmt.Errorf("agentd: unexpected frame type %d from collector", typ))
			return
		}
	}
}

// acquire blocks until n record credits are available (or the session
// dies). This is where collector pressure stops the tailers.
func (s *session) acquire(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.credits < n && !s.dead {
		s.cond.Wait()
	}
	if s.dead {
		return s.deadErr
	}
	s.credits -= n
	s.a.creditsGauge.Store(s.credits)
	return nil
}

// loop is the session's main cycle: discover sources, poll each tailer,
// quiesce its parser, and ship what came out — until stop or death.
func (s *session) loop() error {
	ticker := time.NewTicker(s.a.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-s.a.stopCh:
			if s.a.killed.Load() {
				return fmt.Errorf("agentd: killed")
			}
			return s.drain()
		case <-s.deadCh:
			return s.deadErr
		case <-ticker.C:
			if err := s.scan(); err != nil {
				return err
			}
			for _, src := range s.sources {
				if err := s.cycle(src); err != nil {
					return err
				}
			}
		}
	}
}

// scan discovers newly appeared files this agent owns and opens them with
// the collector, blocking on each Resume so tailing starts at the exact
// applied offset.
func (s *session) scan() error {
	entries, err := os.ReadDir(s.a.cfg.LogDir)
	if err != nil {
		return nil // the directory may not exist yet
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		full := filepath.Join(s.a.cfg.LogDir, name)
		if _, known := s.byPath[full]; known {
			continue
		}
		if !stream.Streamable(s.a.cfg.Plan, name) {
			continue
		}
		if s.a.cfg.Own != nil && !s.a.cfg.Own(name) {
			continue
		}
		s.a.bmu.Lock()
		blocked := s.a.denied[full] || s.a.failed[full]
		s.a.bmu.Unlock()
		if blocked {
			continue
		}
		if err := s.open(full, name); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) open(full, name string) error {
	sp := s.a.obs.Begin(selfobs.PipeAgent, "open", s.a.cfg.ID, name)
	s.nextID++
	id := s.nextID
	ch := make(chan int64, 1)
	s.mu.Lock()
	s.resumes[id] = ch
	s.mu.Unlock()
	if err := s.c.Write(wire.TypeOpen, wire.EncodeOpen(wire.Open{
		SourceID: id, Key: full, Name: name,
	})); err != nil {
		return err
	}
	if err := s.c.Flush(); err != nil {
		return err
	}
	var offset int64
	select {
	case offset = <-ch:
	case <-s.deadCh:
		return s.deadErr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("agentd: %s: no Resume within 30s", name)
	}
	if offset == stream.ResumeDenied {
		s.a.bmu.Lock()
		s.a.denied[full] = true
		s.a.bmu.Unlock()
		sp.End(0, 1)
		return nil
	}
	b, _ := s.a.cfg.Plan.Find(name)
	parser, err := parsers.Get(b.Parser)
	if err != nil {
		return nil // a plan naming an unknown parser skips the file
	}
	src := &agentSource{
		id:      id,
		path:    full,
		name:    name,
		binding: b,
		parser:  parser,
		tail:    stream.NewTailer(full, offset),
		lastOff: offset,
		done:    make(chan struct{}),
	}
	pr, pw := io.Pipe()
	src.pw = pw
	src.mr = &meteredReader{r: pr}
	go src.parse()
	s.sources = append(s.sources, src)
	s.byPath[full] = src
	s.a.liveSources.Add(1)
	sp.End(1, 0)
	return nil
}

// cycle runs one poll for one source: move new bytes through the parser,
// wait for it to go idle so the committed offset covers exactly the
// records emitted, then ship them.
func (s *session) cycle(src *agentSource) error {
	if src.dead() {
		return s.failSource(src)
	}
	n, err := src.tail.Poll(src.write)
	if err != nil && err != io.ErrClosedPipe {
		src.failErr(err)
	}
	if src.dead() {
		return s.failSource(src)
	}
	offExact := true
	if n > 0 {
		offExact = src.waitIdle()
	}
	return s.ship(src, offExact)
}

// ship collects the source's emitted records and quarantine count and
// sends them as one or more batch frames, respecting the credit window.
// Only the cycle-final sub-batch carries the new byte offset: an earlier
// sub-batch's records end mid-cycle, at no offset the tailer can name, so
// a crash between sub-batches resumes from the previous stamp and the
// collector drops the re-shipped overlap by count.
func (s *session) ship(src *agentSource, offExact bool) error {
	src.mu.Lock()
	pending := src.pending
	src.pending = nil
	quar := src.quarantined
	src.mu.Unlock()
	off := src.tail.Committed()
	if !offExact {
		off = src.lastOff // parser never went idle; don't over-claim
	}
	if len(pending) == 0 && off == src.lastOff && quar == src.lastQuar {
		return nil
	}
	var sp selfobs.Span
	if len(pending) > 0 {
		sp = s.a.obs.Begin(selfobs.PipeAgent, "ship", s.a.cfg.ID, src.name)
	}
	max := s.a.cfg.MaxBatchRecords
	for start := 0; ; start += max {
		end := start + max
		if end > len(pending) {
			end = len(pending)
		}
		chunk := pending[start:end]
		lastChunk := end == len(pending)
		if err := s.acquire(int64(len(chunk))); err != nil {
			return err
		}
		src.seq++
		b := wire.Batch{
			SourceID:    src.id,
			Seq:         src.seq,
			Offset:      src.lastOff, // overwritten on the final sub-batch
			Quarantined: quar,
		}
		if lastChunk {
			b.Offset = off
		}
		b.AppendEntries(chunk)
		payload := wire.EncodeBatch(&b)
		for i := range chunk {
			chunk[i].Release()
		}
		if err := s.c.Write(wire.TypeBatch, payload); err != nil {
			return err
		}
		s.mu.Lock()
		s.outstanding++
		s.mu.Unlock()
		s.a.batchesSent.Add(1)
		s.a.recordsSent.Add(int64(len(chunk)))
		obsBatches.Add(1)
		obsRecords.Add(int64(len(chunk)))
		if lastChunk {
			break
		}
		// Flush before the next acquire can block: a frame parked in the
		// write buffer is one the collector cannot ack, and acks are the
		// only source of fresh credit — holding both is a deadlock.
		if err := s.c.Flush(); err != nil {
			return err
		}
	}
	sp.End(int64(len(pending)), quar-src.lastQuar)
	src.lastOff = off
	src.lastQuar = quar
	s.a.quarantined.Store(s.totalQuarantined())
	return s.c.Flush()
}

func (s *session) totalQuarantined() int64 {
	var t int64
	for _, src := range s.sources {
		src.mu.Lock()
		t += src.quarantined
		src.mu.Unlock()
	}
	return t
}

// failSource finishes a source whose parser died: ship what it emitted
// before dying, then report the failure. The local pipeline appends every
// record a parser emitted before its error, so the agent must not drop
// them — and the final batch carries tail.Committed(), the exact bytes fed
// before death, so the ledger offset matches local ingest byte for byte.
// The parser is gone, so there is nothing to quiesce: pending is final.
func (s *session) failSource(src *agentSource) error {
	if !src.reported {
		if err := s.ship(src, true); err != nil {
			return err
		}
	}
	return s.reportFailed(src)
}

// reportFailed tells the collector a source's parser died, once.
func (s *session) reportFailed(src *agentSource) error {
	if src.reported {
		return nil
	}
	src.reported = true
	s.a.bmu.Lock()
	s.a.failed[src.path] = true
	s.a.bmu.Unlock()
	msg := ""
	if err := src.failure(); err != nil {
		msg = err.Error()
	}
	if err := s.c.Write(wire.TypeSourceState, wire.EncodeSourceState(wire.SourceState{
		SourceID: src.id, State: wire.SourceFailed, Error: msg,
	})); err != nil {
		return err
	}
	return s.c.Flush()
}

// drain is the clean shutdown: read every owned file to EOF, flush the
// partial last lines, close the parsers so buffered trailing records
// emit, ship the remainder, wait for every ack, and say Goodbye — the
// exact mirror of the local pipeline's stop sequence.
func (s *session) drain() error {
	sp := s.a.obs.Begin(selfobs.PipeAgent, "drain", s.a.cfg.ID, "")
	if err := s.scan(); err != nil {
		return err
	}
	for pass := 0; pass < 100; pass++ {
		total := 0
		for _, src := range s.sources {
			if src.dead() {
				continue
			}
			n, err := src.tail.Poll(src.write)
			total += n
			if err != nil && err != io.ErrClosedPipe {
				src.failErr(err)
			}
		}
		// Ship as we go so the credit window never wedges the drain.
		for _, src := range s.sources {
			if src.dead() {
				if err := s.failSource(src); err != nil {
					return err
				}
				continue
			}
			if err := s.ship(src, src.waitIdle()); err != nil {
				return err
			}
		}
		if total == 0 {
			break
		}
	}
	for _, src := range s.sources {
		if src.dead() {
			continue
		}
		if err := src.tail.Flush(src.write); err != nil && err != io.ErrClosedPipe {
			src.failErr(err)
		}
	}
	// EOF the parsers and join them: a flushed partial line only becomes a
	// record once the parser sees end of input.
	for _, src := range s.sources {
		src.pw.Close()
		<-src.done
	}
	for _, src := range s.sources {
		if src.dead() {
			if err := s.failSource(src); err != nil {
				return err
			}
			continue
		}
		if err := s.ship(src, true); err != nil {
			return err
		}
	}
	// Close the drain span before rendering: the ship below carries every
	// span recorded so far, including this one.
	sp.End(int64(len(s.sources)), 0)
	if err := s.shipSelfTrace(); err != nil {
		return err
	}
	// Every batch acked before Goodbye: the collector may then retire the
	// session knowing all records are applied.
	s.mu.Lock()
	for s.outstanding > 0 && !s.dead {
		s.cond.Wait()
	}
	dead, deadErr := s.dead, s.deadErr
	s.mu.Unlock()
	if dead {
		return deadErr
	}
	if err := s.c.Write(wire.TypeGoodbye, wire.EncodeGoodbye(wire.Goodbye{Reason: "drained"})); err != nil {
		return err
	}
	return s.c.Flush()
}

// shipSelfTrace ships the agent's own telemetry as one final synthetic
// source, after every real source has drained. The spans render through
// the selfobs log format and re-parse with the registered selftrace
// mScopeParser, so the shipped schema is exactly what a file ingest of
// the same log would load. The synthetic key's base name starts with the
// agent ID, which HostOf turns into the warehouse table prefix: spans
// land in "<ID>_selftrace" and the fleet view attributes them to this
// node. Best-effort: a collector that already holds bytes under this key
// (an earlier agent generation reusing the ID) skips the ship rather
// than splice two unrelated logs at a byte offset.
func (s *session) shipSelfTrace() error {
	obs := s.a.obs
	if obs == nil {
		return nil
	}
	name := s.a.cfg.ID + "_selftrace.log"
	b, ok := s.a.cfg.Plan.Find(name)
	if !ok {
		return nil
	}
	parser, err := parsers.Get(b.Parser)
	if err != nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := obs.WriteLog(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	if len(data) == 0 {
		return nil
	}
	full := filepath.Join(s.a.cfg.LogDir, name)
	s.nextID++
	id := s.nextID
	ch := make(chan int64, 1)
	s.mu.Lock()
	s.resumes[id] = ch
	s.mu.Unlock()
	if err := s.c.Write(wire.TypeOpen, wire.EncodeOpen(wire.Open{
		SourceID: id, Key: full, Name: name,
	})); err != nil {
		return err
	}
	if err := s.c.Flush(); err != nil {
		return err
	}
	var offset int64
	select {
	case offset = <-ch:
	case <-s.deadCh:
		return s.deadErr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("agentd: %s: no Resume within 30s", name)
	}
	if offset != 0 {
		return nil // denied, or a prior generation's bytes: skip
	}
	var entries []mxml.Entry
	emit := func(e mxml.Entry) error {
		entries = append(entries, e)
		return nil
	}
	if err := parser.Parse(bytes.NewReader(data), b.Instructions, emit); err != nil {
		return err
	}
	max := s.a.cfg.MaxBatchRecords
	var seq uint64
	for start := 0; start < len(entries); start += max {
		end := start + max
		if end > len(entries) {
			end = len(entries)
		}
		chunk := entries[start:end]
		if err := s.acquire(int64(len(chunk))); err != nil {
			return err
		}
		seq++
		bt := wire.Batch{SourceID: id, Seq: seq}
		if end == len(entries) {
			bt.Offset = int64(len(data))
		}
		bt.AppendEntries(chunk)
		payload := wire.EncodeBatch(&bt)
		for i := range chunk {
			chunk[i].Release()
		}
		if err := s.c.Write(wire.TypeBatch, payload); err != nil {
			return err
		}
		s.mu.Lock()
		s.outstanding++
		s.mu.Unlock()
		s.a.batchesSent.Add(1)
		s.a.recordsSent.Add(int64(len(chunk)))
		// Flush before the next acquire can block (see ship).
		if err := s.c.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes the per-session source machinery after the connection
// is gone; pending records are dropped — the resume offset re-reads them.
func (s *session) teardown() {
	for _, src := range s.sources {
		src.pw.Close()
		<-src.done
		src.mu.Lock()
		for i := range src.pending {
			src.pending[i].Release()
		}
		src.pending = nil
		src.mu.Unlock()
	}
}

// agentSource is one tailed file within a session.
type agentSource struct {
	id      uint32
	path    string
	name    string
	binding transform.Binding
	parser  parsers.Parser
	tail    *stream.Tailer
	pw      *io.PipeWriter
	mr      *meteredReader
	done    chan struct{} // parser goroutine exited

	seq      uint64
	lastOff  int64
	lastQuar int64
	reported bool // SourceFailed sent
	written  atomic.Int64

	mu          sync.Mutex
	pending     []mxml.Entry
	quarantined int64
	failed      bool
	err         error
}

func (src *agentSource) write(b []byte) error {
	n, err := src.pw.Write(b)
	src.written.Add(int64(n))
	return err
}

func (src *agentSource) dead() bool {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.failed
}

func (src *agentSource) failure() error {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.err
}

func (src *agentSource) failErr(err error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if !src.failed {
		src.failed = true
		src.err = err
	}
}

// parse runs the source's mScopeParser over the pipe — degraded mode when
// supported, so malformed regions are quarantined and counted exactly as
// the local pipeline and the batch converter count them.
func (src *agentSource) parse() {
	defer close(src.done)
	emit := func(e mxml.Entry) error {
		src.mu.Lock()
		src.pending = append(src.pending, e)
		src.mu.Unlock()
		return nil
	}
	sink := func(parsers.Malformed) error {
		src.mu.Lock()
		src.quarantined++
		src.mu.Unlock()
		return nil
	}
	var err error
	if dp, ok := src.parser.(parsers.DegradedParser); ok {
		err = dp.ParseDegraded(src.mr, src.binding.Instructions, emit, sink)
	} else {
		err = src.parser.Parse(src.mr, src.binding.Instructions, emit)
	}
	if err != nil && err != io.ErrClosedPipe {
		src.failErr(err)
	}
	// Unblock any in-flight tailer write permanently.
	if pr, ok := src.mr.r.(*io.PipeReader); ok {
		pr.CloseWithError(io.ErrClosedPipe)
	}
}

// waitIdle waits until the parser has consumed everything written and is
// blocked on its next Read — the quiesce point where tail.Committed()
// covers exactly the records in pending. False means the parser never
// went idle (it died, or is wedged): the caller must not advance the
// shipped offset this cycle.
func (src *agentSource) waitIdle() bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-src.done:
			return false
		default:
		}
		if src.mr.waiting.Load() && src.mr.consumed.Load() == src.written.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// meteredReader tracks whether its consumer is blocked in Read and how
// many bytes it has consumed. "Blocked with everything consumed" is the
// quiesce point: io.Pipe writes are synchronous, so once the parser is
// back in Read having drained every written byte, every record those
// bytes held has been emitted. The consumed count closes the race where
// a pipe write has returned but the reader has not yet re-flagged
// waiting — mid-gap, consumed < written keeps the caller spinning.
type meteredReader struct {
	r        io.Reader
	waiting  atomic.Bool
	consumed atomic.Int64
}

func (m *meteredReader) Read(p []byte) (int, error) {
	m.waiting.Store(true)
	n, err := m.r.Read(p)
	m.consumed.Add(int64(n))
	m.waiting.Store(false)
	return n, err
}

// Status is a point-in-time agent snapshot for the CLI and /metrics.
type Status struct {
	ID            string `json:"id"`
	Connected     bool   `json:"connected"`
	Sources       int64  `json:"sources"`
	BatchesSent   int64  `json:"batches_sent"`
	RecordsSent   int64  `json:"records_sent"`
	AcksReceived  int64  `json:"acks_received"`
	Reconnects    int64  `json:"reconnects"`
	DialErrors    int64  `json:"dial_errors"`
	WireTxBytes   int64  `json:"wire_tx_bytes"`
	WireRxBytes   int64  `json:"wire_rx_bytes"`
	Quarantined   int64  `json:"quarantined"`
	Credits       int64  `json:"credits"`
	FidelityState string `json:"collector_fidelity"`
	QueuePct      int    `json:"collector_queue_pct"`
}

// Status snapshots the agent counters.
func (a *Agent) Status() Status {
	a.mu.Lock()
	ctl := a.lastCtrl
	a.mu.Unlock()
	st, _ := fidelity.FromByte(ctl.State)
	return Status{
		ID:            a.cfg.ID,
		Connected:     a.liveSources.Load() > 0 || a.creditsGauge.Load() > 0,
		Sources:       a.liveSources.Load(),
		BatchesSent:   a.batchesSent.Load(),
		RecordsSent:   a.recordsSent.Load(),
		AcksReceived:  a.acksReceived.Load(),
		Reconnects:    a.reconnects.Load(),
		DialErrors:    a.dialErrors.Load(),
		WireTxBytes:   a.wireTx.Load(),
		WireRxBytes:   a.wireRx.Load(),
		Quarantined:   a.quarantined.Load(),
		Credits:       a.creditsGauge.Load(),
		FidelityState: st.String(),
		QueuePct:      int(ctl.QueuePct),
	}
}

// MetricsText renders the agent counters in Prometheus exposition
// format, through the shared promfmt writer every mscope surface uses.
func (a *Agent) MetricsText() string {
	st := a.Status()
	var w promfmt.Writer
	c := func(name string, v int64, help string) {
		w.Counter(promfmt.Prefix+"agent_"+name, help, float64(v))
	}
	g := func(name string, v int64, help string) {
		w.Gauge(promfmt.Prefix+"agent_"+name, help, float64(v))
	}
	c("batches_sent_total", st.BatchesSent, "batch frames shipped to the collector")
	c("records_sent_total", st.RecordsSent, "records shipped to the collector")
	c("acks_received_total", st.AcksReceived, "batch acks received")
	c("reconnects_total", st.Reconnects, "sessions re-established after a drop")
	c("dial_errors_total", st.DialErrors, "failed collector dials")
	c("wire_tx_bytes_total", st.WireTxBytes, "raw bytes written to the collector")
	c("wire_rx_bytes_total", st.WireRxBytes, "raw bytes read from the collector")
	c("quarantined_total", st.Quarantined, "malformed regions diverted at this node")
	g("sources", st.Sources, "sources currently open with the collector")
	g("credits", st.Credits, "record credits currently held")
	fidVal := int64(0)
	switch st.FidelityState {
	case "aggregate":
		fidVal = 1
	case "shed":
		fidVal = 2
	}
	g("collector_fidelity_state", fidVal, "collector-pushed fidelity: 0 full, 1 aggregate, 2 shed")
	g("collector_queue_pct", int64(st.QueuePct), "collector record-channel fill percent")
	return w.String()
}

// Handler serves the agent's observability endpoints: /status as JSON,
// /metrics as Prometheus text, /healthz as a readiness probe that holds
// 200 while the agent is connected to its collector.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(a.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(a.MetricsText()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := a.Status()
		stopped := false
		select {
		case <-a.doneCh:
			stopped = true
		default:
		}
		probes := map[string]bool{
			"wire":    st.Connected,
			"running": !stopped,
		}
		promfmt.WriteHealth(w, probes, st.Connected && !stopped)
	})
	return mux
}
