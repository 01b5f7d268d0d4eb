// Package agentd is the per-node half of the distributed deployment: one
// agent process per monitored node runs the source front end `mscope live`
// runs locally (stream.FrontEnd: discovery, the rotation-aware Tailer, the
// tokenizing mScopeParsers, degraded-mode quarantine, stamped batches) and
// ships what it delivers to the central collector as checkpointed column
// batches over the wire protocol.
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
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

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

	// blocked is the agent-lifetime source blocklist (see owns).
	bmu     sync.Mutex
	blocked map[string]bool

	mu     sync.Mutex
	runErr error // fatal handshake error, surfaced by Stop

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
	// connected holds from an accepted HelloAck until its session returns.
	connected atomic.Bool
}

// New validates the config and builds an agent; Start runs it.
func New(cfg Config) (*Agent, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     c,
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		blocked: make(map[string]bool),
	}
	if c.SelfTrace {
		a.obs = selfobs.NewCollector(c.ID, time.Now())
	}
	return a, nil
}

// Start launches the connect/ship loop.
func (a *Agent) Start() { go a.run() }

// Stop drains and disconnects; it returns the fatal session error, if
// any (a rejected handshake, or one granting no credit). Transient
// connection failures are not errors — surviving them is the job.
func (a *Agent) Stop() error {
	a.stopOnce.Do(func() { close(a.stopCh) })
	<-a.doneCh
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runErr
}

// Done reports when the connect/ship loop has exited for good. It only
// closes on Stop, Kill, or a fatal handshake error — never on a transient
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

// maxFrameRecords caps the records of one batch frame. A session's frames
// are smaller still when the collector grants less credit than this: a
// frame must fit the window, or its batch would wait for credit forever.
const maxFrameRecords = 512

// session drives one connection from handshake to drain or death. The
// front end and every per-source counter are scoped to the session: a
// reconnect rebuilds everything from the collector's resume offsets, which
// is what makes the crash story simple.
type session struct {
	a     *Agent
	c     *wire.Conn
	front *stream.FrontEnd
	// frameCap caps the records of a batch frame: maxFrameRecords, or the
	// credit the collector granted when that is less.
	frameCap int

	// sendMu serializes frames onto the connection: the front end's
	// discovery goroutine opens sources, each source's parser goroutine
	// ships its batches. It also guards nextID and the two tallies.
	sendMu      sync.Mutex
	nextID      uint32
	sources     int64
	quarantined int64

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
	var fatal error
	switch {
	case !ack.OK:
		fatal = fmt.Errorf("agentd: collector rejected handshake: %s", ack.Reason)
	case ack.Credit < 1:
		// No frame fits a window without credit: nothing could ever ship.
		fatal = fmt.Errorf("agentd: collector granted credit %d, a frame needs at least 1", ack.Credit)
	}
	if fatal != nil {
		a.mu.Lock()
		a.runErr = fatal
		a.mu.Unlock()
		return errRejected
	}
	a.connected.Store(true)
	defer a.connected.Store(false)
	s := &session{
		a:        a,
		c:        c,
		frameCap: int(min(maxFrameRecords, ack.Credit)),
		credits:  ack.Credit,
		deadCh:   make(chan struct{}),
		resumes:  make(map[uint32]chan int64),
	}
	s.cond = sync.NewCond(&s.mu)
	// The front end is `mscope live`'s: the agent puts a credit window and
	// a socket behind it where the live pipeline puts its loader. A batch is
	// a frame, so the cap is the frame's.
	s.front = stream.NewFrontEnd(stream.FrontConfig{
		LogDir: a.cfg.LogDir, Plan: a.cfg.Plan, Poll: a.cfg.Poll,
		BatchCap: s.frameCap, Filter: a.owns, Open: s.open,
		Pipe: selfobs.PipeAgent, Obs: a.obs,
	})
	a.creditsGauge.Store(ack.Credit)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.reader()
	}()
	err = s.loop()
	nc.Close() // unblocks the reader, and any parser mid-write, if the loop failed first
	<-readerDone
	s.front.Abort() // a no-op after a drain
	a.liveSources.Store(0)
	return err
}

// owns is the discovery filter: the files this agent is configured to ship,
// less the ones blocked for the life of the process — the collector
// terminally rejected the source, or its parser died here.
func (a *Agent) owns(name string) bool {
	if a.cfg.Own != nil && !a.cfg.Own(name) {
		return false
	}
	a.bmu.Lock()
	defer a.bmu.Unlock()
	return !a.blocked[filepath.Join(a.cfg.LogDir, name)]
}

func (a *Agent) block(path string) {
	a.bmu.Lock()
	a.blocked[path] = true
	a.bmu.Unlock()
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
// answer opens.
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
		default:
			s.fail(fmt.Errorf("agentd: unexpected frame type %d from collector", typ))
			return
		}
	}
}

// acquire blocks until n record credits are available (or the session
// dies). This is where collector pressure stops the tailers: the parser
// that called waits here, its pipe fills, and its file is read later.
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
	s.outstanding++
	s.a.creditsGauge.Store(s.credits)
	return nil
}

// loop runs the front end until stop or death.
func (s *session) loop() error {
	s.front.Start()
	select {
	case <-s.a.stopCh:
		if s.a.killed.Load() {
			return fmt.Errorf("agentd: killed")
		}
		return s.drain()
	case <-s.deadCh:
		return s.deadErr
	}
}

// frame writes one frame and flushes it. Every frame is flushed before its
// sender can next block in acquire: a frame parked in the write buffer is
// one the collector cannot ack, and acks are the only source of fresh
// credit — holding both is a deadlock.
func (s *session) frame(typ byte, payload []byte) error {
	if err := s.c.Write(typ, payload); err != nil {
		return err
	}
	return s.c.Flush()
}

// handshake announces a source under key and waits for the collector's
// resume offset.
func (s *session) handshake(key, name string) (id uint32, offset int64, err error) {
	ch := make(chan int64, 1)
	s.sendMu.Lock()
	s.nextID++
	id = s.nextID
	s.mu.Lock()
	s.resumes[id] = ch
	s.mu.Unlock()
	err = s.frame(wire.TypeOpen, wire.EncodeOpen(wire.Open{SourceID: id, Key: key, Name: name}))
	s.sendMu.Unlock()
	if err != nil {
		return id, 0, err
	}
	select {
	case offset = <-ch:
		return id, offset, nil
	case <-s.deadCh:
		return id, 0, s.deadErr
	case <-time.After(30 * time.Second):
		return id, 0, fmt.Errorf("agentd: %s: no Resume within 30s", name)
	}
}

// send ships a batch as one frame, within the credit window.
func (s *session) send(b *wire.Batch) error {
	n := int64(b.Records())
	if err := s.acquire(n); err != nil {
		return err
	}
	payload := wire.EncodeBatch(b)
	s.a.batchesSent.Add(1)
	s.a.recordsSent.Add(n)
	obsBatches.Add(1)
	obsRecords.Add(n)
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.frame(wire.TypeBatch, payload)
}

// open is the front end's adoption hook: open the file with the collector
// and start tailing at the exact applied offset it answers with.
func (s *session) open(path, name string, _ transform.Binding) (stream.Sink, int64) {
	sp := s.a.obs.Begin(selfobs.PipeAgent, "open", s.a.cfg.ID, name)
	id, offset, err := s.handshake(path, name)
	if err != nil {
		s.fail(err)
		return stream.Sink{}, 0
	}
	if offset == stream.ResumeDenied {
		s.a.block(path)
		sp.End(0, 1)
		return stream.Sink{}, 0
	}
	s.sendMu.Lock()
	s.sources++
	s.sendMu.Unlock()
	s.a.liveSources.Add(1)
	sp.End(1, 0)
	var seq uint64
	var lastQuar int64
	// The front end's records go straight into the next frame's batch.
	var pending wire.Batch
	return stream.Sink{Record: pending.AppendRecord, Deliver: func(b stream.Batch) bool {
		var span selfobs.Span
		if b.Records > 0 {
			span = s.a.obs.Begin(selfobs.PipeAgent, "ship", s.a.cfg.ID, name)
		}
		seq++
		pending.SourceID, pending.Seq, pending.Offset, pending.Quarantined = id, seq, b.Offset, b.Quarantined
		err := s.send(&pending)
		pending.Reset() // the frame holds a copy; the next batch reuses the storage
		if err == nil && b.Err != nil {
			// The parser died: what it emitted has shipped, so report the
			// failure, once — this is the file's last batch, and the
			// blocklist keeps later sessions from reopening it.
			s.a.block(path)
			s.sendMu.Lock()
			err = s.frame(wire.TypeSourceState, wire.EncodeSourceState(wire.SourceState{
				SourceID: id, State: wire.SourceFailed, Error: b.Err.Error(),
			}))
			s.sendMu.Unlock()
		}
		if err != nil {
			s.fail(err)
			return false
		}
		span.End(int64(b.Records), b.Quarantined-lastQuar)
		s.sendMu.Lock()
		s.quarantined += b.Quarantined - lastQuar
		s.a.quarantined.Store(s.quarantined)
		s.sendMu.Unlock()
		lastQuar = b.Quarantined
		return true
	}}, offset
}

// drain is the clean shutdown: the front end reads every owned file to
// EOF and joins its parsers, shipping as it goes; then the agent's own
// telemetry, every ack, and Goodbye.
func (s *session) drain() error {
	sp := s.a.obs.Begin(selfobs.PipeAgent, "drain", s.a.cfg.ID, "")
	s.front.Stop()
	s.sendMu.Lock()
	sources := s.sources
	s.sendMu.Unlock()
	// Close the drain span before rendering: the ship below carries every
	// span recorded so far, including this one.
	sp.End(sources, 0)
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
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.frame(wire.TypeGoodbye, wire.EncodeGoodbye(wire.Goodbye{Reason: "drained"}))
}

// shipSelfTrace ships the agent's own telemetry as one final synthetic
// source, after every real source has drained. The synthetic key's base
// name starts with the agent ID, which HostOf turns into the warehouse
// table prefix: spans land in "<ID>_selftrace" and the fleet view
// attributes them to this node. Best-effort: a collector that already
// holds bytes under this key (an earlier agent generation reusing the ID)
// skips the ship rather than splice two unrelated logs at a byte offset.
func (s *session) shipSelfTrace() error {
	if s.a.obs == nil {
		return nil
	}
	name := s.a.cfg.ID + "_selftrace.log"
	var batches []*wire.Batch // of frameCap records, the last maybe fewer
	n := 0
	size, err := stream.SelfTrace(s.a.obs, s.a.cfg.Plan, name, func(r *parsers.Record) error {
		if n%s.frameCap == 0 {
			batches = append(batches, new(wire.Batch))
		}
		n++
		return batches[len(batches)-1].AppendRecord(r)
	})
	if err != nil || n == 0 {
		return err
	}
	id, offset, err := s.handshake(filepath.Join(s.a.cfg.LogDir, name), name)
	if err != nil || offset != 0 {
		return err // denied, or a prior generation's bytes: skip
	}
	for i, b := range batches {
		b.SourceID, b.Seq = id, uint64(i+1)
		if i == len(batches)-1 {
			b.Offset = size
		}
		if err := s.send(b); err != nil {
			return err
		}
	}
	return nil
}

// Status is a point-in-time agent snapshot for the CLI and /metrics.
type Status struct {
	ID           string `json:"id"`
	Connected    bool   `json:"connected"`
	Sources      int64  `json:"sources"`
	BatchesSent  int64  `json:"batches_sent"`
	RecordsSent  int64  `json:"records_sent"`
	AcksReceived int64  `json:"acks_received"`
	Reconnects   int64  `json:"reconnects"`
	DialErrors   int64  `json:"dial_errors"`
	WireTxBytes  int64  `json:"wire_tx_bytes"`
	WireRxBytes  int64  `json:"wire_rx_bytes"`
	Quarantined  int64  `json:"quarantined"`
	Credits      int64  `json:"credits"`
}

// Status snapshots the agent counters.
func (a *Agent) Status() Status {
	return Status{
		ID:           a.cfg.ID,
		Connected:    a.connected.Load(),
		Sources:      a.liveSources.Load(),
		BatchesSent:  a.batchesSent.Load(),
		RecordsSent:  a.recordsSent.Load(),
		AcksReceived: a.acksReceived.Load(),
		Reconnects:   a.reconnects.Load(),
		DialErrors:   a.dialErrors.Load(),
		WireTxBytes:  a.wireTx.Load(),
		WireRxBytes:  a.wireRx.Load(),
		Quarantined:  a.quarantined.Load(),
		Credits:      a.creditsGauge.Load(),
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
	return w.String()
}

// Handler serves the agent's observability endpoints: /status as JSON,
// /metrics as Prometheus text, /healthz as a readiness probe that holds
// 200 while the agent is connected to its collector.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		promfmt.WriteJSON(w, http.StatusOK, a.Status())
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
