// Package collector is the central half of the distributed deployment:
// it accepts agent connections over TCP or a unix socket, authenticates
// them, adopts their sources into a remote-fed stream engine (the exact
// appender/watermark/fidelity/detector machinery `mscope live` runs
// locally), and acks each applied batch with its durable offset and
// returned credits.
//
// Correctness invariants:
//
//   - Batches apply per-source FIFO. An ack means every record in the
//     batch has been fully processed by the loader, so the acked offset
//     is durable: a restarted agent resuming there re-ships nothing the
//     warehouse already holds, and the engine drops by count anything it
//     already consumed beyond the offset.
//   - The loader never blocks on a socket. Acks are queued per
//     connection and written by a dedicated goroutine, so one stalled
//     agent link cannot wedge ingest for everyone else.
//   - Flow control composes with fidelity. Credits bound the records in
//     flight end-to-end; the engine's fidelity state (driven by the same
//     queue/lag/mem pressure as `mscope live`) is pushed to agents in
//     Control frames, so a pressured collector degrades the deployment
//     to AGGREGATE instead of buffering without bound.
package collector

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
)

// Self-telemetry counters; free when no collector is enabled.
var (
	obsBatchesIn  = selfobs.NewCounter(selfobs.PipeCollector, "ingest", "batches")
	obsRecordsIn  = selfobs.NewCounter(selfobs.PipeCollector, "ingest", "records")
	obsAcksOut    = selfobs.NewCounter(selfobs.PipeCollector, "ack", "acks")
	obsConnsTotal = selfobs.NewCounter(selfobs.PipeCollector, "conn", "accepted")
)

// Config parameterizes a collector. Zero values select defaults.
type Config struct {
	// Token authenticates agents; a Hello with a different token is
	// rejected. Empty means no authentication.
	Token string
	// Network and Addr name the listen endpoint ("tcp" host:port or
	// "unix" socket path). Ignored when Listener is set.
	Network, Addr string
	// Listener overrides the endpoint — tests inject in-memory listeners.
	Listener net.Listener
	// Engine configures the remote-fed stream engine: DB, Plan,
	// ErrorBudget, Fidelity, OnAlert all apply exactly as in `mscope
	// live`. LogDir must be empty.
	Engine stream.Config
	// credit is the initial per-connection record credit window (default
	// 4096; only this package's tests set it). It bounds each agent's
	// unacked records in flight, and an agent's frames fit inside it.
	credit int64
	// controlEvery is the fidelity/pressure broadcast cadence (default
	// 250ms; only this package's tests set it); state changes are pushed
	// to every connected agent.
	controlEvery time.Duration
	// SelfTrace records the collector's own spans (connections, opens,
	// batch ingest) in a node-local selfobs collector and loads them into
	// the warehouse at Stop under "collector_selftrace" — alongside the
	// per-agent tables the agents ship, completing the fleet view.
	SelfTrace bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Network == "" {
		out.Network = "tcp"
	}
	if out.credit <= 0 {
		out.credit = 4096
	}
	if out.controlEvery <= 0 {
		out.controlEvery = 250 * time.Millisecond
	}
	return out
}

// Collector is the central ingest server. Start listens and serves;
// Stop closes every connection, drains the engine — final windows
// classified, ledger checkpointed — and returns the loader error, if any.
type Collector struct {
	cfg  Config
	pipe *stream.Pipeline
	ln   net.Listener
	// obs is the collector's own span collector (nil unless
	// Config.SelfTrace); standalone, so its records carry this node's
	// identity rather than the process-global session's.
	obs *selfobs.Collector

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup // accept loop + control broadcaster
	connWG   sync.WaitGroup // per-connection readers and writers

	mu     sync.Mutex
	conns  map[*conn]struct{}
	owners map[string]*conn // source key → owning connection

	connsTotal   atomic.Int64
	authFailures atomic.Int64
	batchesIn    atomic.Int64
	recordsIn    atomic.Int64
	acksOut      atomic.Int64
	opens        atomic.Int64
	denials      atomic.Int64
	wireRx       atomic.Int64
	wireTx       atomic.Int64
	frameErrors  atomic.Int64
}

// New builds the collector and its remote-fed engine; Start serves.
func New(cfg Config) (*Collector, error) {
	c := cfg.withDefaults()
	if c.Engine.LogDir != "" {
		return nil, fmt.Errorf("collector: Engine.LogDir must be empty (agents own the logs)")
	}
	pipe, err := stream.NewRemote(c.Engine)
	if err != nil {
		return nil, err
	}
	col := &Collector{
		cfg:    c,
		pipe:   pipe,
		stopCh: make(chan struct{}),
		conns:  make(map[*conn]struct{}),
		owners: make(map[string]*conn),
	}
	if c.SelfTrace {
		col.obs = selfobs.NewCollector("collector", time.Now())
	}
	return col, nil
}

// Pipeline exposes the engine for status, alerts, and (after Stop) the
// warehouse.
func (col *Collector) Pipeline() *stream.Pipeline { return col.pipe }

// DB returns the engine's warehouse. Only touch it after Stop.
func (col *Collector) DB() *mscopedb.DB { return col.pipe.DB() }

// Start opens the listener and launches the engine, accept loop, and
// control broadcaster.
func (col *Collector) Start() error {
	ln := col.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen(col.cfg.Network, col.cfg.Addr)
		if err != nil {
			return err
		}
	}
	col.ln = ln
	col.pipe.Start()
	col.wg.Add(2)
	go col.acceptLoop()
	go col.controlLoop()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (col *Collector) Addr() net.Addr { return col.ln.Addr() }

// Stop closes the listener and every connection, joins the per-conn
// goroutines, then drains the engine: remaining channel records load,
// final windows classify, the ledger checkpoints. The returned error is
// the engine's loader error, if any.
func (col *Collector) Stop() error {
	col.stopOnce.Do(func() { close(col.stopCh) })
	col.ln.Close()
	col.mu.Lock()
	for c := range col.conns {
		c.nc.Close()
	}
	col.mu.Unlock()
	col.connWG.Wait()
	col.wg.Wait()
	var obsErr error
	if col.obs != nil {
		obsErr = col.shipSelfTrace()
	}
	if err := col.pipe.Stop(); err != nil {
		return err
	}
	return obsErr
}

// shipSelfTrace loads the collector's own spans into the warehouse as one
// wire batch, through the same remote-source path agent batches take,
// committed at the rendered log's size — so "collector_selftrace" is indistinguishable from
// a table an agent shipped. Called between connection teardown and engine
// drain: the loader is still running, and no agent frames can interleave.
func (col *Collector) shipSelfTrace() error {
	const name = "collector_selftrace.log"
	plan := col.cfg.Engine.Plan
	if plan == nil {
		plan = transform.DefaultPlan()
	}
	var b wire.Batch
	size, err := stream.SelfTrace(col.obs, plan, name, b.AppendRecord)
	if err != nil || b.Records() == 0 {
		return err
	}
	rs, offset, err := col.pipe.OpenRemote(name, name)
	if err != nil || rs == nil {
		return err
	}
	defer rs.Suspend()
	if offset != 0 {
		return nil
	}
	done := make(chan struct{})
	b.Offset = size
	rs.AppendBatch(&b, func() { close(done) })
	<-done
	return nil
}

func (col *Collector) stopping() bool {
	select {
	case <-col.stopCh:
		return true
	default:
		return false
	}
}

func (col *Collector) acceptLoop() {
	defer col.wg.Done()
	for {
		nc, err := col.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if col.stopping() {
			nc.Close()
			return
		}
		col.connsTotal.Add(1)
		obsConnsTotal.Add(1)
		c := &conn{
			col:     col,
			nc:      nc,
			c:       wire.NewConn(wire.CountingConn{Conn: nc, Tx: &col.wireTx, Rx: &col.wireRx}),
			sources: make(map[uint32]*connSource),
		}
		c.cond = sync.NewCond(&c.mu)
		col.mu.Lock()
		col.conns[c] = struct{}{}
		col.mu.Unlock()
		col.connWG.Add(1)
		go func() {
			defer col.connWG.Done()
			c.serve()
		}()
	}
}

// controlLoop pushes the engine's fidelity state and queue fill to every
// agent — on change, and at a slow heartbeat so late joiners converge.
func (col *Collector) controlLoop() {
	defer col.wg.Done()
	ticker := time.NewTicker(col.cfg.controlEvery)
	defer ticker.Stop()
	var last wire.Control
	beats := 0
	for {
		select {
		case <-col.stopCh:
			return
		case <-ticker.C:
			ctl := wire.Control{
				State:    uint8(col.pipe.FidelityState()),
				QueuePct: uint8(col.pipe.QueueFill() * 100),
			}
			beats++
			if ctl == last && beats%8 != 0 {
				continue
			}
			last = ctl
			payload := wire.EncodeControl(ctl)
			col.mu.Lock()
			for c := range col.conns {
				c.enqueue(wire.TypeControl, payload)
			}
			col.mu.Unlock()
		}
	}
}

// claimOwner takes exclusive ownership of a source key for c, waiting out
// a previous connection that is still releasing (an agent restart races
// the server noticing the old socket died — this side closes the stale
// socket to hurry it along). False means the wait timed out: the Open is
// denied rather than risking two writers on one source.
func (col *Collector) claimOwner(key string, c *conn) bool {
	deadline := time.Now().Add(30 * time.Second)
	for {
		col.mu.Lock()
		owner, taken := col.owners[key]
		if !taken || owner == c {
			col.owners[key] = c
			col.mu.Unlock()
			return true
		}
		col.mu.Unlock()
		if time.Now().After(deadline) {
			return false
		}
		owner.nc.Close()
		time.Sleep(time.Millisecond)
	}
}

func (col *Collector) releaseOwner(keys []string, c *conn) {
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, k := range keys {
		if col.owners[k] == c {
			delete(col.owners, k)
		}
	}
}

// outFrame is one queued collector→agent frame.
type outFrame struct {
	typ     byte
	payload []byte
}

// conn is one agent connection: a reader goroutine (this file's serve)
// that decodes frames and feeds the engine, and a writer goroutine that
// drains the ack/control queue so the loader never blocks on the socket.
type conn struct {
	col     *Collector
	nc      net.Conn
	c       *wire.Conn
	agentID string

	mu    sync.Mutex
	cond  *sync.Cond
	outq  []outFrame
	dying bool

	sources map[uint32]*connSource
}

// enqueue queues a frame for the writer; it never blocks.
func (c *conn) enqueue(typ byte, payload []byte) {
	c.mu.Lock()
	c.outq = append(c.outq, outFrame{typ, payload})
	c.cond.Signal()
	c.mu.Unlock()
}

func (c *conn) markDying() {
	c.mu.Lock()
	c.dying = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// writer drains the out queue to the socket. After the connection starts
// dying it keeps consuming (and discarding, once a write failed) until
// the queue is empty, so enqueuers never block or leak.
func (c *conn) writer() {
	failed := false
	for {
		c.mu.Lock()
		for len(c.outq) == 0 && !c.dying {
			c.cond.Wait()
		}
		if len(c.outq) == 0 && c.dying {
			c.mu.Unlock()
			return
		}
		batch := c.outq
		c.outq = nil
		c.mu.Unlock()
		if failed {
			continue
		}
		for _, f := range batch {
			if err := c.c.Write(f.typ, f.payload); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			if err := c.c.Flush(); err != nil {
				failed = true
			}
		}
		if failed {
			c.nc.Close() // wake the reader; the session is over
		}
	}
}

// serve runs the connection from handshake to teardown.
func (c *conn) serve() {
	defer c.nc.Close()
	if !c.handshake() {
		return
	}
	sp := c.col.obs.Begin(selfobs.PipeCollector, "conn", c.agentID, "")
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writer()
	}()
	clean := c.readLoop()
	var connErrs int64
	if !clean {
		connErrs = 1
	}
	sp.End(int64(len(c.sources)), connErrs)
	// Release ownership so a restarted agent can re-adopt; sources of an
	// uncleanly dead agent stay registered and keep constraining the
	// watermark — a vanished tier must block window closure, exactly like
	// a silent local source, until it reconnects or the engine drains.
	keys := make([]string, 0, len(c.sources))
	for _, cs := range c.sources {
		keys = append(keys, cs.rs.Key())
		if clean {
			cs.rs.Suspend()
		}
	}
	c.col.releaseOwner(keys, c)
	c.col.mu.Lock()
	delete(c.col.conns, c)
	c.col.mu.Unlock()
	c.markDying()
	<-writerDone
}

// handshake validates the Hello and grants the credit window. Writes
// happen directly here — the writer goroutine starts only afterwards.
func (c *conn) handshake() bool {
	typ, payload, err := c.c.Read()
	if err != nil || typ != wire.TypeHello {
		return false
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return false
	}
	reject := func(reason string) {
		c.col.authFailures.Add(1)
		_ = c.c.Write(wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{OK: false, Reason: reason}))
		_ = c.c.Flush()
	}
	if h.Version != wire.Version {
		reject(fmt.Sprintf("protocol version %d, want %d", h.Version, wire.Version))
		return false
	}
	if c.col.cfg.Token != "" && h.Token != c.col.cfg.Token {
		reject("bad token")
		return false
	}
	if h.AgentID == "" {
		reject("empty agent id")
		return false
	}
	c.agentID = h.AgentID
	if err := c.c.Write(wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{
		OK: true, Credit: c.col.cfg.credit,
	})); err != nil {
		return false
	}
	return c.c.Flush() == nil
}

// readLoop decodes agent frames until the connection dies or says
// Goodbye; true means a clean Goodbye. A frame read whole but refused — it
// does not decode, or an agent has no business sending its type — drops
// the connection and counts as a frame error, which a network drop does
// not.
func (c *conn) readLoop() bool {
	refuse := func() bool {
		c.col.frameErrors.Add(1)
		return false
	}
	for {
		typ, payload, err := c.c.Read()
		if err != nil {
			return false
		}
		switch typ {
		case wire.TypeOpen:
			o, err := wire.DecodeOpen(payload)
			if err != nil {
				return refuse()
			}
			c.handleOpen(o)
		case wire.TypeBatch:
			b, err := wire.DecodeBatch(payload)
			if err != nil {
				return refuse()
			}
			if !c.handleBatch(&b) {
				return false
			}
		case wire.TypeSourceState:
			ss, err := wire.DecodeSourceState(payload)
			if err != nil {
				return refuse()
			}
			c.handleSourceState(ss)
		case wire.TypeGoodbye:
			if _, err := wire.DecodeGoodbye(payload); err != nil {
				return refuse()
			}
			return true
		default:
			return refuse()
		}
	}
}

// handleOpen adopts one agent source into the engine and answers with
// the resume offset (or a denial).
func (c *conn) handleOpen(o wire.Open) {
	sp := c.col.obs.Begin(selfobs.PipeCollector, "open", c.agentID, o.Name)
	deny := func() {
		c.col.denials.Add(1)
		sp.End(0, 1)
		c.enqueue(wire.TypeResume, wire.EncodeResume(wire.Resume{
			SourceID: o.SourceID, Offset: stream.ResumeDenied,
		}))
	}
	if !c.col.claimOwner(o.Key, c) {
		deny()
		return
	}
	rs, offset, err := c.col.pipe.OpenRemote(o.Key, o.Name)
	if err != nil || rs == nil {
		c.col.releaseOwner([]string{o.Key}, c)
		deny()
		return
	}
	sp.End(1, 0)
	c.col.opens.Add(1)
	c.sources[o.SourceID] = &connSource{id: o.SourceID, rs: rs}
	c.enqueue(wire.TypeResume, wire.EncodeResume(wire.Resume{
		SourceID: o.SourceID, Offset: offset,
	}))
}

// handleBatch feeds one batch into the engine; false tears the
// connection down (a batch for a source that was never opened). The loader
// applies the batch's stamp — offset, quarantine count — once its records
// are counted, and then runs the ack: per source the engine is FIFO, so
// acks, offsets and quarantine totals apply strictly in batch order, a
// record-less stamp at its place in the queue.
func (c *conn) handleBatch(b *wire.Batch) bool {
	cs := c.sources[b.SourceID]
	if cs == nil {
		return false
	}
	sp := c.col.obs.Begin(selfobs.PipeCollector, "ingest", c.agentID, "")
	c.col.batchesIn.Add(1)
	obsBatchesIn.Add(1)
	n := b.Records()
	ack := wire.EncodeAck(wire.Ack{SourceID: cs.id, Seq: b.Seq, Offset: b.Offset, Credit: int64(n)})
	cs.rs.AppendBatch(b, func() {
		c.col.acksOut.Add(1)
		obsAcksOut.Add(1)
		c.enqueue(wire.TypeAck, ack)
	})
	c.col.recordsIn.Add(int64(n))
	obsRecordsIn.Add(int64(n))
	sp.End(int64(n), 0)
	return true
}

func (c *conn) handleSourceState(ss wire.SourceState) {
	cs := c.sources[ss.SourceID]
	if cs == nil {
		return
	}
	switch ss.State {
	case wire.SourceFailed:
		cs.rs.Fail(ss.Error)
	case wire.SourceEOF:
		cs.rs.Suspend()
	}
}

// connSource is one adopted source on one connection.
type connSource struct {
	id uint32
	rs *stream.RemoteSource
}

// Status is a point-in-time collector snapshot.
type Status struct {
	Agents       int   `json:"agents"`
	ConnsTotal   int64 `json:"conns_total"`
	AuthFailures int64 `json:"auth_failures"`
	Opens        int64 `json:"opens"`
	Denials      int64 `json:"denials"`
	BatchesIn    int64 `json:"batches_in"`
	RecordsIn    int64 `json:"records_in"`
	AcksOut      int64 `json:"acks_out"`
	WireRxBytes  int64 `json:"wire_rx_bytes"`
	WireTxBytes  int64 `json:"wire_tx_bytes"`
	FrameErrors  int64 `json:"frame_errors"`
}

// Status snapshots the collector counters.
func (col *Collector) Status() Status {
	col.mu.Lock()
	agents := len(col.conns)
	col.mu.Unlock()
	return Status{
		Agents:       agents,
		ConnsTotal:   col.connsTotal.Load(),
		AuthFailures: col.authFailures.Load(),
		Opens:        col.opens.Load(),
		Denials:      col.denials.Load(),
		BatchesIn:    col.batchesIn.Load(),
		RecordsIn:    col.recordsIn.Load(),
		AcksOut:      col.acksOut.Load(),
		WireRxBytes:  col.wireRx.Load(),
		WireTxBytes:  col.wireTx.Load(),
		FrameErrors:  col.frameErrors.Load(),
	}
}

// MetricsText renders the collector counters in Prometheus exposition
// format, appended to the engine's own families — both sides rendered
// through the shared promfmt writer, so the concatenation still lints.
func (col *Collector) MetricsText() string {
	st := col.Status()
	var w promfmt.Writer
	c := func(name string, v int64, help string) {
		w.Counter(promfmt.Prefix+"collector_"+name, help, float64(v))
	}
	g := func(name string, v int64, help string) {
		w.Gauge(promfmt.Prefix+"collector_"+name, help, float64(v))
	}
	g("agents", int64(st.Agents), "agent connections currently live")
	c("conns_total", st.ConnsTotal, "agent connections accepted")
	c("auth_failures_total", st.AuthFailures, "handshakes rejected")
	c("opens_total", st.Opens, "sources adopted from agents")
	c("denials_total", st.Denials, "source opens denied")
	c("batches_total", st.BatchesIn, "batch frames received")
	c("records_total", st.RecordsIn, "records received in batches")
	c("acks_total", st.AcksOut, "batch acks sent")
	c("wire_rx_bytes_total", st.WireRxBytes, "raw bytes read from agents")
	c("wire_tx_bytes_total", st.WireTxBytes, "raw bytes written to agents")
	c("frame_errors_total", st.FrameErrors, "agent frames refused, each dropping its connection")
	return col.pipe.MetricsText() + w.String()
}

// Handler serves the collector's observability endpoints: the engine's
// /status and /alerts, /collector as the collector's own counters,
// /metrics as the combined Prometheus families, and /healthz holding
// 200 while the listener accepts and the engine runs.
func (col *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	engine := col.pipe.Handler()
	mux.Handle("/status", engine)
	mux.Handle("/alerts", engine)
	mux.HandleFunc("/collector", func(w http.ResponseWriter, r *http.Request) {
		promfmt.WriteJSON(w, http.StatusOK, col.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(col.MetricsText()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		listening := !col.stopping() && col.ln != nil
		running := col.pipe.Status().Running
		promfmt.WriteHealth(w, map[string]bool{
			"wire":   listening,
			"engine": running,
		}, listening && running)
	})
	return mux
}
