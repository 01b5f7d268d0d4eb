package collector

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/wire"
)

// hosts are the four monitored tiers. Each agent in these tests plays one
// node: the simulator writes every tier's logs into one directory, and the
// Own filter splits them by the "<host>_" filename prefix, exactly as a
// real deployment splits them by machine.
var hosts = []string{"apache", "cjdbc", "mysql", "tomcat"}

func ownHost(host string) func(string) bool {
	return func(name string) bool { return strings.HasPrefix(name, host+"_") }
}

// sourcesPerHost is what each tier writes: one event log and one collectl
// CSV.
const sourcesPerHost = 2

var (
	fullOnce sync.Once
	fullDir  string
	fullErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fullDir != "" {
		os.RemoveAll(fullDir)
	}
	os.Exit(code)
}

// stagedDBIO runs the full Section V-A disk-IO trial once per test binary;
// the soak and partition tests need the anomaly strong enough for a
// verdict, which the shrunk differential corpus is not.
func stagedDBIO(t *testing.T) string {
	t.Helper()
	fullOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mscope-dist-dbio-")
		if err != nil {
			fullErr = err
			return
		}
		fullDir = dir
		_, fullErr = core.RunExperiment(core.ScenarioDBIO(dir))
	})
	if fullErr != nil {
		t.Fatalf("stage dbio trial: %v", fullErr)
	}
	return fullDir
}

// smallScenarios mirrors the batch differential suite: every Section V
// trial, user counts trimmed so the sweep stays test-suite friendly while
// the logs keep each scenario's anomaly.
func smallScenarios() map[string]func(logDir string) core.ExperimentConfig {
	shrink := func(mk func(string) core.ExperimentConfig) func(string) core.ExperimentConfig {
		return func(logDir string) core.ExperimentConfig {
			cfg := mk(logDir)
			cfg.Ntier.Users = 50
			return cfg
		}
	}
	return map[string]func(string) core.ExperimentConfig{
		"dbio":      shrink(core.ScenarioDBIO),
		"dirtypage": shrink(core.ScenarioDirtyPage),
		"jvmgc":     shrink(core.ScenarioJVMGC),
		"dvfs":      shrink(core.ScenarioDVFS),
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// localDump ingests dir with the single-process streaming engine — the
// ground truth every distributed shape must reproduce byte for byte.
func localDump(t *testing.T, dir string, engine stream.Config) string {
	t.Helper()
	engine.LogDir = dir
	pipe, err := stream.New(engine)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	return dbtest.Dump(t, pipe.DB())
}

func startCollector(t *testing.T, cfg Config) *Collector {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Network, cfg.Addr = "tcp", "127.0.0.1:0"
	}
	col, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	return col
}

func startAgent(t *testing.T, col *Collector, dir, host string, mutate func(*agentd.Config)) *agentd.Agent {
	t.Helper()
	cfg := agentd.Config{
		ID:     "agent-" + host,
		Token:  col.cfg.Token,
		Addr:   col.Addr().String(),
		LogDir: dir,
		Poll:   2 * time.Millisecond,
		Own:    ownHost(host),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := agentd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return a
}

// drainAll stops every agent (full drain: tail to EOF, ship, await acks,
// Goodbye) and then the collector (final windows classified, ledger
// checkpointed).
func drainAll(t *testing.T, col *Collector, agents []*agentd.Agent) {
	t.Helper()
	for _, a := range agents {
		if err := a.Stop(); err != nil {
			t.Fatalf("agent drain: %v", err)
		}
	}
	if err := col.Stop(); err != nil {
		t.Fatalf("collector stop: %v", err)
	}
}

// distWarehouse ingests dir through the full distributed path — one agent
// per owner host shipping over loopback TCP to a central collector — and
// returns the warehouse after a clean drain. With selfTrace, each agent
// also ships its own spans at drain and the collector loads its own at Stop.
func distWarehouse(t *testing.T, dir string, owners []string, engine stream.Config, selfTrace bool) *mscopedb.DB {
	t.Helper()
	col := startCollector(t, Config{Engine: engine, SelfTrace: selfTrace})
	agents := make([]*agentd.Agent, 0, len(owners))
	for _, h := range owners {
		agents = append(agents, startAgent(t, col, dir, h, func(c *agentd.Config) { c.SelfTrace = selfTrace }))
	}
	// An agent stopped before it ever dialed ships nothing at all: wait
	// until every source has been adopted before draining.
	want := int64(sourcesPerHost * len(owners))
	waitFor(t, 30*time.Second, "all sources opened", func() bool {
		return col.Status().Opens >= want
	})
	drainAll(t, col, agents)
	return col.DB()
}

// distDump is the canonical dump of distWarehouse without self-tracing.
func distDump(t *testing.T, dir string, owners []string, engine stream.Config) string {
	t.Helper()
	return dbtest.Dump(t, distWarehouse(t, dir, owners, engine, false))
}

// TestDistDifferentialScenariosClean is the distributed generalization of
// the PR 3 conformance bar: four per-node agents shipping to one
// collector must produce a warehouse byte-identical to single-process
// streaming ingest of the same directory, on every Section V scenario.
func TestDistDifferentialScenariosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed differential sweep skipped in -short mode")
	}
	for name, mk := range smallScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := mk(t.TempDir())
			cfg.Name = "dist-" + name
			if _, err := core.RunExperiment(cfg); err != nil {
				t.Fatal(err)
			}
			local := localDump(t, cfg.LogDir, stream.Config{})
			dist := distDump(t, cfg.LogDir, hosts, stream.Config{})
			dbtest.Same(t, "distributed against single-process ingest", local, dist)
		})
	}
}

// TestDistDifferentialChaosSeeds replays the corruption differential over
// the wire: damaged logs must quarantine and degrade identically whether
// the parser runs next to the warehouse or on the agent's node.
func TestDistDifferentialChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos differential skipped in -short mode")
	}
	cfg := smallScenarios()["dbio"](t.TempDir())
	cfg.Name = "dist-chaos"
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			corrupted := t.TempDir()
			frep, err := faults.Corrupt(cfg.LogDir, corrupted, faults.Config{Seed: seed, Rate: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			injected := 0
			for _, k := range faults.LineKinds() {
				injected += frep.Total(k)
			}
			if injected == 0 {
				t.Fatal("fault injector corrupted nothing")
			}
			// A generous error budget on BOTH engines: where rejection
			// triggers mid-stream depends on poll interleaving, so the
			// set of post-rejection rows dropped is inherently
			// timing-dependent. The conformance bar here is byte
			// equality of the surviving rows and quarantine handling,
			// which budget 1.0 makes deterministic.
			engine := stream.Config{ErrorBudget: 1.0}
			local := localDump(t, corrupted, engine)
			dist := distDump(t, corrupted, hosts, engine)
			dbtest.Same(t, "chaos: distributed against single-process ingest", local, dist)
		})
	}
}

// TestDistSoak is the kill/restart soak: a throttled collector keeps the
// replay mid-stream while one agent is crashed (no drain, no Goodbye) and
// replaced. The replacement must resume from the collector-acked offsets
// with zero duplicate and zero lost rows — proven by byte equality
// against single-process ingest — and the disk-IO verdict must still
// fire from the distributed evidence.
func TestDistSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed soak skipped in -short mode")
	}
	stage := stagedDBIO(t)
	want := localDump(t, stage, stream.Config{})

	// The delayed consumer plus the small credit window hold each agent
	// far from EOF long enough to kill one mid-stream.
	col := startCollector(t, Config{
		Engine: stream.Config{ConsumerDelay: 100 * time.Microsecond},
		credit: 512,
	})
	tune := func(c *agentd.Config) {
		c.Poll = time.Millisecond
		c.ReconnectBase = 10 * time.Millisecond
	}
	agents := make([]*agentd.Agent, 0, len(hosts))
	var victim *agentd.Agent
	for _, h := range hosts {
		a := startAgent(t, col, stage, h, tune)
		if h == "tomcat" {
			victim = a
		} else {
			agents = append(agents, a)
		}
	}
	// Kill the tomcat node once the collector has adopted every source and
	// applied a meaningful prefix of the victim's shipment — mid-file for
	// both the resumable event log and the re-read-from-zero CSV.
	waitFor(t, 120*time.Second, "mid-stream kill point", func() bool {
		return col.Status().Opens >= int64(sourcesPerHost*len(hosts)) &&
			col.Status().RecordsIn >= 2000 &&
			victim.Status().RecordsSent >= 500
	})
	victim.Kill()

	// Restart the node: a fresh agent over the same logs must resume from
	// the collector's applied offsets.
	restarted := startAgent(t, col, stage, "tomcat", func(c *agentd.Config) {
		tune(c)
		c.ID = "agent-tomcat-restarted"
	})
	agents = append(agents, restarted)
	waitFor(t, 60*time.Second, "restarted agent re-adopting its sources", func() bool {
		return col.Status().Opens >= int64(sourcesPerHost*len(hosts)+sourcesPerHost)
	})
	drainAll(t, col, agents)

	got := dbtest.Dump(t, col.DB())
	// A difference here is rows duplicated or lost across the resume.
	dbtest.Same(t, "kill/restart against single-process ingest", want, got)
	verdict := false
	for _, a := range col.Pipeline().Alerts() {
		if a.Diagnosis.Kind == core.CauseDiskIO && a.Diagnosis.Node == "mysql" {
			verdict = true
		}
	}
	if !verdict {
		t.Errorf("disk-IO verdict missing from distributed run: alerts %+v", col.Pipeline().Alerts())
	}
}

// TestDistPartitionedTier deploys agents on three of the four tiers —
// the cjdbc node is partitioned away — and asserts the PR 1 degraded
// diagnosis contract: the warehouse admits which evidence is missing,
// and the verdict the surviving evidence supports still lands.
func TestDistPartitionedTier(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioned-tier test skipped in -short mode")
	}
	stage := stagedDBIO(t)
	col := startCollector(t, Config{})
	owners := []string{"apache", "tomcat", "mysql"}
	agents := make([]*agentd.Agent, 0, len(owners))
	for _, h := range owners {
		agents = append(agents, startAgent(t, col, stage, h, nil))
	}
	waitFor(t, 30*time.Second, "partitioned fleet's sources opened", func() bool {
		return col.Status().Opens >= int64(sourcesPerHost*len(owners))
	})
	drainAll(t, col, agents)

	diag, err := core.Diagnose(col.DB(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Degraded() {
		t.Fatal("diagnosis over a partitioned tier must self-report as degraded")
	}
	foundCJDBC := false
	for _, s := range diag.MissingSources {
		if strings.Contains(s, "cjdbc_event") {
			foundCJDBC = true
		}
	}
	if !foundCJDBC {
		t.Errorf("missing sources %v lack cjdbc_event", diag.MissingSources)
	}
	if len(diag.Windows) == 0 || diag.Windows[0].Kind != core.CauseDiskIO || diag.Windows[0].Node != "mysql" {
		t.Errorf("degraded verdict diverged: %+v", diag.Windows)
	}
}

// TestDistAuthReject: a wrong token is a fatal, surfaced error on the
// agent — not a reconnect loop — and a counted rejection on the
// collector, which must adopt nothing from the intruder.
func TestDistAuthReject(t *testing.T) {
	col := startCollector(t, Config{Token: "s3cret"})
	a, err := agentd.New(agentd.Config{
		ID:     "intruder",
		Token:  "wrong",
		Addr:   col.Addr().String(),
		LogDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	waitFor(t, 10*time.Second, "handshake rejection", func() bool {
		return col.Status().AuthFailures >= 1
	})
	err = a.Stop()
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("agent error = %v, want surfaced handshake rejection", err)
	}
	if got := col.Status().Opens; got != 0 {
		t.Errorf("collector adopted %d sources from an unauthenticated agent", got)
	}
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameErrorClosesConnection: a scripted agent that passes the
// handshake and then sends a frame the collector refuses is dropped, and
// the collector counts it as a frame error — in Status and on /metrics —
// so refused frames are told apart from a network drop. Refused are a Batch
// that does not decode, a frame of type 7 (protocol version 1's Control,
// now unassigned), and one an agent must not send.
func TestFrameErrorClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"corrupt batch", wire.TypeBatch, []byte{0xff}},
		{"type 7", 7, []byte{1, 50}},
		{"collector-only type", wire.TypeAck, wire.EncodeAck(wire.Ack{SourceID: 1})},
	} {
		col := startCollector(t, Config{Token: "s3cret"})
		sa := dialScripted(t, col)
		sa.send(tc.typ, tc.payload)
		sa.readToClose(tc.name)
		if got := col.Status().FrameErrors; got != 1 {
			t.Errorf("%s: FrameErrors = %d, want 1", tc.name, got)
		}
		text := col.MetricsText()
		if !strings.Contains(text, "\nmscope_collector_frame_errors_total 1\n") {
			t.Errorf("%s: /metrics does not count the frame error:\n%s", tc.name, text)
		}
		if err := promfmt.Lint(text); err != nil {
			t.Error(err)
		}
		if err := col.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoodbyeIsDecoded: a Goodbye is clean only if its payload decodes. A
// malformed one is refused like any other frame — counted in frame_errors
// — and its connection ends as a dead agent's does: the collector's own
// conn span records the error, which a clean Goodbye's does not.
func TestGoodbyeIsDecoded(t *testing.T) {
	clean := wire.EncodeGoodbye(wire.Goodbye{Reason: "drained"})
	for _, tc := range []struct {
		name    string
		payload []byte
		errs    int64 // frame errors, and conn span errors
	}{
		{"clean", clean, 0},
		{"trailing byte", append(append([]byte(nil), clean...), 0), 1},
		{"torn length", []byte{0xff}, 1},
	} {
		col := startCollector(t, Config{Token: "s3cret", SelfTrace: true})
		sa := dialScripted(t, col)
		sa.send(wire.TypeGoodbye, tc.payload)
		sa.readToClose("a Goodbye")
		if got := col.Status().FrameErrors; got != tc.errs {
			t.Errorf("%s: FrameErrors = %d, want %d", tc.name, got, tc.errs)
		}
		if err := col.Stop(); err != nil {
			t.Fatal(err)
		}
		ft, err := core.FleetSelfTraceBreakdown(col.DB())
		if err != nil || ft == nil {
			t.Fatalf("%s: no collector self-trace: %v", tc.name, err)
		}
		conns := 0
		for _, st := range ft.Stages {
			if st.Pipeline == selfobs.PipeCollector && st.Stage == "conn" {
				conns++
				if st.Errs != tc.errs {
					t.Errorf("%s: conn span errs = %d, want %d", tc.name, st.Errs, tc.errs)
				}
			}
		}
		if conns != 1 {
			t.Errorf("%s: %d collector conn stages, want 1", tc.name, conns)
		}
	}
}

// scripted is a hand-driven agent connection past its handshake.
type scripted struct {
	t  *testing.T
	nc net.Conn
	c  *wire.Conn
}

// dialScripted connects to col as agent "scripted" with col's token and
// passes the handshake; the connection closes with the test.
func dialScripted(t *testing.T, col *Collector) *scripted {
	t.Helper()
	nc, err := net.Dial("tcp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	sa := &scripted{t: t, nc: nc, c: wire.NewConn(nc)}
	sa.send(wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, AgentID: "scripted", Token: col.cfg.Token}))
	if typ, p, err := sa.c.Read(); err != nil || typ != wire.TypeHelloAck {
		t.Fatalf("handshake: type %d, %v", typ, err)
	} else if ack, err := wire.DecodeHelloAck(p); err != nil || !ack.OK {
		t.Fatalf("handshake refused: %+v %v", ack, err)
	}
	return sa
}

func (sa *scripted) send(typ byte, payload []byte) {
	sa.t.Helper()
	if err := sa.c.Write(typ, payload); err != nil {
		sa.t.Fatal(err)
	}
	if err := sa.c.Flush(); err != nil {
		sa.t.Fatal(err)
	}
}

// readToClose reads until the collector drops the connection, which it
// must do within 10s of what the test sent last.
func (sa *scripted) readToClose(after string) {
	sa.t.Helper()
	sa.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var err error
	for err == nil {
		_, _, err = sa.c.Read()
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		sa.t.Fatalf("the collector kept the connection open after %s", after)
	}
}

// TestOldProtocolRefused: a peer speaking protocol version 1 (which had
// the Control frame) is refused at the handshake, by version.
func TestOldProtocolRefused(t *testing.T) {
	col := startCollector(t, Config{})
	nc, err := net.Dial("tcp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sa := &scripted{t: t, nc: nc, c: wire.NewConn(nc)}
	sa.send(wire.TypeHello, wire.EncodeHello(wire.Hello{Version: 1, AgentID: "old"}))
	typ, p, err := sa.c.Read()
	if err != nil || typ != wire.TypeHelloAck {
		t.Fatalf("handshake: type %d, %v", typ, err)
	}
	ack, err := wire.DecodeHelloAck(p)
	if err != nil || ack.OK || ack.Reason != "protocol version 1, want 2" {
		t.Errorf("HelloAck = %+v (%v), want refused with \"protocol version 1, want 2\"", ack, err)
	}
	if got := col.Status().AuthFailures; got != 1 {
		t.Errorf("AuthFailures = %d, want 1", got)
	}
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStopLeavesNoGoroutine: after a drained fleet stops, nothing of the
// collector (accept loop, per-connection readers and writers, engine
// loader) or of its agents is left running.
func TestStopLeavesNoGoroutine(t *testing.T) {
	cfg := smallScenarios()["dbio"](t.TempDir())
	cfg.Name = "dist-goroutines"
	cfg.Ntier.Duration = 2 * time.Second
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(5 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	before := settle()
	col := startCollector(t, Config{SelfTrace: true})
	agents := []*agentd.Agent{
		startAgent(t, col, cfg.LogDir, "apache", func(c *agentd.Config) { c.SelfTrace = true }),
		startAgent(t, col, cfg.LogDir, "mysql", nil),
	}
	waitFor(t, 30*time.Second, "both agents' sources opened", func() bool {
		return col.Status().Opens >= 2*sourcesPerHost
	})
	drainAll(t, col, agents)
	if col.Status().RecordsIn == 0 {
		t.Fatal("the fleet shipped nothing")
	}
	if after := settle(); after > before {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines before, %d after the fleet stopped:\n%s", before, after, buf)
	}
}
