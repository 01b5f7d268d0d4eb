package agentd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/wire"
)

// apacheLines renders n access-log records, one per line.
func apacheLines(n int) string {
	ep := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		ua := ep.Add(time.Duration(i) * time.Millisecond)
		sb.WriteString(logfmt.ApacheAccess("10.1.0.9", "GET", fmt.Sprintf("/rubbos/Story?id=req-%07d", i),
			200, 9000, ua, ua.Add(2*time.Millisecond), time.Time{}, time.Time{}))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func writeLog(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fakeCollector is the far end of the agent's connections: Dial hands the
// agent one side of a net.Pipe and the test the other, so every frame the
// agent sends is read — and every answer scripted — by the test itself.
type fakeCollector struct {
	conns chan net.Conn
}

func newFakeCollector() *fakeCollector { return &fakeCollector{conns: make(chan net.Conn, 16)} }

func (f *fakeCollector) dial() (net.Conn, error) {
	agentSide, testSide := net.Pipe()
	f.conns <- testSide
	return agentSide, nil
}

// accept takes the agent's next connection and answers its Hello with a
// credit window.
func (f *fakeCollector) accept(t *testing.T, credit int64) *peer {
	t.Helper()
	var nc net.Conn
	select {
	case nc = <-f.conns:
	case <-time.After(10 * time.Second):
		t.Fatal("agent never dialled")
	}
	p := &peer{t: t, nc: nc, c: wire.NewConn(nc)}
	if typ, _ := p.read(); typ != wire.TypeHello {
		t.Fatalf("first frame is type %d, want Hello", typ)
	}
	p.write(wire.TypeHelloAck, wire.EncodeHelloAck(wire.HelloAck{OK: true, Credit: credit}))
	return p
}

type peer struct {
	t  *testing.T
	nc net.Conn
	c  *wire.Conn
}

func (p *peer) read() (byte, []byte) {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	typ, payload, err := p.c.Read()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		p.t.Fatal("peer read: the agent sent nothing for 20s")
	} else if err != nil {
		p.t.Fatalf("peer read: %v", err)
	}
	return typ, payload
}

func (p *peer) write(typ byte, payload []byte) {
	p.t.Helper()
	if err := p.c.Write(typ, payload); err != nil {
		p.t.Fatalf("peer write: %v", err)
	}
	if err := p.c.Flush(); err != nil {
		p.t.Fatalf("peer flush: %v", err)
	}
}

// transcript is what one connection carried, as serve saw it.
type transcript struct {
	opens    []wire.Open
	batches  []wire.Batch
	records  int
	failures []wire.SourceState
	goodbye  bool
}

// serve plays a well-behaved collector until Goodbye (or until stop
// returns true after a frame): every Open is answered with resume(name),
// every batch acked with its records' worth of credit, and the agent is
// never allowed more records in flight than it holds credit for.
func (p *peer) serve(credit int64, resume func(name string) int64, stop func(*transcript) bool) *transcript {
	p.t.Helper()
	s := &transcript{}
	for {
		typ, payload := p.read()
		switch typ {
		case wire.TypeOpen:
			o, err := wire.DecodeOpen(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			s.opens = append(s.opens, o)
			p.write(wire.TypeResume, wire.EncodeResume(wire.Resume{SourceID: o.SourceID, Offset: resume(o.Name)}))
		case wire.TypeBatch:
			b, err := wire.DecodeBatch(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			n := int64(b.Records())
			if credit -= n; credit < 0 {
				p.t.Fatalf("batch seq %d of %d records overdraws the credit window by %d", b.Seq, n, -credit)
			}
			s.batches = append(s.batches, b)
			s.records += int(n)
			credit += n
			p.write(wire.TypeAck, wire.EncodeAck(wire.Ack{SourceID: b.SourceID, Seq: b.Seq, Offset: b.Offset, Credit: n}))
		case wire.TypeSourceState:
			ss, err := wire.DecodeSourceState(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			s.failures = append(s.failures, ss)
		case wire.TypeGoodbye:
			s.goodbye = true
			return s
		default:
			p.t.Fatalf("unexpected frame type %d from the agent", typ)
		}
		if stop != nil && stop(s) {
			return s
		}
	}
}

func fromZero(string) int64 { return 0 }

func startAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "node"
	}
	if cfg.Poll == 0 {
		cfg.Poll = time.Millisecond
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return a
}

// stopAsync drains the agent while the test keeps serving its connection.
func stopAsync(a *Agent) <-chan error {
	done := make(chan error, 1)
	go func() { done <- a.Stop() }()
	return done
}

// TestCreditWindowAndFlushBeforeBlock: a default agent granted a window
// smaller than its 512-record frame cap and than its backlog ships the
// whole backlog in frames that fit the window, and drains. It never has more records in flight than credit
// (serve fails the test on an overdraw), and every frame reaches the peer
// before the agent waits for the credit its ack returns — a frame parked
// in the write buffer would deadlock this test, since the peer acks only
// what it has read. A frame larger than the window would wait for credit
// forever: the peer's read deadline fails the test instead of hanging.
func TestCreditWindowAndFlushBeforeBlock(t *testing.T) {
	dir := t.TempDir()
	const records, credit = 1000, 100
	writeLog(t, dir, "apache_access.log", apacheLines(records))
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: dir, Dial: fc.dial})
	p := fc.accept(t, credit)
	var stopped <-chan error
	s := p.serve(credit, fromZero, func(s *transcript) bool {
		if s.records == records && stopped == nil {
			stopped = stopAsync(a)
		}
		return false
	})
	if err := <-stopped; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.records != records || !s.goodbye {
		t.Fatalf("peer received %d of %d records, goodbye %v", s.records, records, s.goodbye)
	}
	var last int64
	for _, b := range s.batches {
		if b.Records() > credit {
			t.Errorf("batch seq %d holds %d records, over the %d-record credit window", b.Seq, b.Records(), credit)
		}
		if b.Offset < last {
			t.Errorf("batch seq %d stamps offset %d after %d", b.Seq, b.Offset, last)
		}
		last = b.Offset
	}
	if want := int64(len(apacheLines(records))); last != want {
		t.Errorf("final offset %d, want the file's %d bytes", last, want)
	}
	if st := a.Status(); st.RecordsSent != records || st.AcksReceived != int64(len(s.batches)) {
		t.Errorf("status %+v after %d batches", st, len(s.batches))
	}
}

// TestNoCreditEndsTheSession: a HelloAck granting no credit, or less,
// leaves no frame that could ever ship. The agent ends on its own, with an
// error naming the credit, instead of waiting for credit forever.
func TestNoCreditEndsTheSession(t *testing.T) {
	for _, credit := range []int64{0, -5} {
		fc := newFakeCollector()
		a := startAgent(t, Config{LogDir: t.TempDir(), Dial: fc.dial})
		p := fc.accept(t, credit)
		select {
		case <-a.Done():
		case <-time.After(10 * time.Second):
			a.Kill()
			t.Fatalf("credit %d: the agent is still waiting after 10s", credit)
		}
		p.nc.Close()
		err := a.Stop()
		if want := fmt.Sprintf("credit %d", credit); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("credit %d: Stop() = %v, want an error naming %q", credit, err, want)
		}
	}
}

// TestAgentCatchUpBoundsRecordsInFlight is the agent-side twin of stream's
// TestStalledLoaderBoundsRecordsInFlight: against a collector that grants a
// window and then never acks, an agent catching up on a large file ships
// the window and stops reading. What it holds is the batch waiting for
// credit, not the file: measured as live heap, because records parsed but
// neither shipped nor released are exactly what the heap keeps.
func TestAgentCatchUpBoundsRecordsInFlight(t *testing.T) {
	dir := t.TempDir()
	const records, credit = 60000, 256
	writeLog(t, dir, "apache_access.log", apacheLines(records))
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: dir, Dial: fc.dial})
	defer a.Kill()
	p := fc.accept(t, credit)
	got := 0
	for got < credit {
		typ, payload := p.read()
		switch typ {
		case wire.TypeOpen:
			o, _ := wire.DecodeOpen(payload)
			p.write(wire.TypeResume, wire.EncodeResume(wire.Resume{SourceID: o.SourceID}))
		case wire.TypeBatch:
			b, err := wire.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			got += b.Records()
		}
	}
	// The window is spent. Nothing more may arrive, however long the agent
	// is given to parse ahead.
	p.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if typ, _, err := p.c.Read(); err == nil {
		t.Fatalf("frame type %d shipped past a spent credit window", typ)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal(err)
	}
	if got != credit {
		t.Errorf("peer holds %d records against a window of %d", got, credit)
	}
	// A parsed record costs well over 500 bytes (its field storage alone is
	// 816), so the whole file held in memory is > 30 MB; the window plus one
	// frame, with the tail and scanner buffers, is well under 1 MB.
	const bound = 8 << 20
	held := int64(heap()) - int64(before)
	t.Logf("%d KB of heap held with the window spent", held>>10)
	if held > bound {
		t.Errorf("agent holds %d MB of heap while waiting for credit; it must hold one frame (at most %d records), not the %d-record backlog",
			held>>20, credit, records)
	}
}

// TestResumeDeniedBlocksFileForLife: a source the collector denies is not
// offered again — not at the next scan, not on the next connection, not by
// the drain's last discovery pass.
func TestResumeDeniedBlocksFileForLife(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, "apache_access.log", apacheLines(20))
	writeLog(t, dir, "tomcat_mscope.log", "")
	resume := func(name string) int64 {
		if name == "apache_access.log" {
			return stream.ResumeDenied
		}
		return 0
	}
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: dir, Dial: fc.dial, ReconnectBase: time.Millisecond})
	p := fc.accept(t, 4096)
	first := p.serve(4096, resume, func(s *transcript) bool { return len(s.opens) == 2 })
	if first.opens[0].Name != "apache_access.log" || first.opens[1].Name != "tomcat_mscope.log" {
		t.Fatalf("first session opened %+v", first.opens)
	}
	// Several scans later the connection drops; the agent reconnects.
	time.Sleep(20 * time.Millisecond)
	p.nc.Close()
	p = fc.accept(t, 4096)
	var stopped <-chan error
	second := p.serve(4096, resume, func(s *transcript) bool {
		if stopped == nil {
			stopped = stopAsync(a)
		}
		return false
	})
	if err := <-stopped; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, o := range append(first.opens[2:], second.opens...) {
		if o.Name == "apache_access.log" {
			t.Errorf("denied source reopened as id %d", o.SourceID)
		}
	}
	if len(second.opens) != 1 || second.records+first.records != 0 {
		t.Errorf("second session opened %+v and the two shipped %d records; want tomcat only, nothing of the denied file",
			second.opens, second.records+first.records)
	}
}

// TestDeadParserShipsThenFailsOnce: a line past the scanner's limit kills
// the parser. What it emitted first still ships, stamped with the offset of
// the last bytes it took whole; then one SourceFailed, and the file is
// never opened again.
func TestDeadParserShipsThenFailsOnce(t *testing.T) {
	dir := t.TempDir()
	good := apacheLines(10)
	writeLog(t, dir, "apache_access.log", good+strings.Repeat("x", 2<<20)+"\n"+apacheLines(5))
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: dir, Dial: fc.dial, ReconnectBase: time.Millisecond})
	p := fc.accept(t, 4096)
	first := p.serve(4096, fromZero, func(s *transcript) bool { return len(s.failures) > 0 })
	if first.records != 10 || len(first.batches) == 0 {
		t.Fatalf("%d records in %d batches before the failure, want the 10 the parser emitted", first.records, len(first.batches))
	}
	if off := first.batches[len(first.batches)-1].Offset; off != int64(len(good)) {
		t.Errorf("last batch stamps offset %d, want %d: the bytes fed before the parser died", off, len(good))
	}
	if f := first.failures[0]; f.State != wire.SourceFailed || f.Error == "" {
		t.Errorf("failure report %+v", f)
	}
	p.nc.Close()
	p = fc.accept(t, 4096)
	time.Sleep(20 * time.Millisecond) // several scans
	stopped := stopAsync(a)
	second := p.serve(4096, fromZero, nil)
	if err := <-stopped; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(second.opens)+len(second.failures)+second.records != 0 {
		t.Errorf("after the failure the next session carried %+v", second)
	}
}

// TestReconnectBackoffBounds: against a collector that is down, the gap
// between dials starts at ReconnectBase, doubles, and stops at
// ReconnectMax.
func TestReconnectBackoffBounds(t *testing.T) {
	const base, ceil = 4 * time.Millisecond, 32 * time.Millisecond
	const slack = 150 * time.Millisecond // scheduling on a loaded box; far below a runaway
	var mu sync.Mutex
	var dials []time.Time
	enough := make(chan struct{})
	a := startAgent(t, Config{LogDir: t.TempDir(), ReconnectBase: base, ReconnectMax: ceil,
		Dial: func() (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			dials = append(dials, time.Now())
			if len(dials) == 8 {
				close(enough)
			}
			return nil, errors.New("collector down")
		}})
	select {
	case <-enough:
	case <-time.After(10 * time.Second):
		t.Fatal("agent stopped redialling")
	}
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	want := base
	for i := 1; i < 8; i++ {
		gap := dials[i].Sub(dials[i-1])
		if gap < want || gap > want+slack {
			t.Errorf("gap %d between dials is %v, want within [%v, %v]", i, gap, want, want+slack)
		}
		want = min(2*want, ceil)
	}
	if got := a.Status().DialErrors; got < 8 {
		t.Errorf("%d dial errors counted, want at least 8", got)
	}
}

// TestStopLeavesNoGoroutine: the connection loop, the frame reader, the
// front end's discovery loop and every parser are joined by Stop after a
// drain and by Kill after a crash.
func TestStopLeavesNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, "apache_access.log", apacheLines(500))
	writeLog(t, dir, "tomcat_mscope.log", "")
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
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: dir, Dial: fc.dial, SelfTrace: true})
	p := fc.accept(t, 4096)
	var stopped <-chan error
	p.serve(4096, fromZero, func(s *transcript) bool {
		if s.records == 500 && stopped == nil {
			stopped = stopAsync(a)
		}
		return false
	})
	if err := <-stopped; err != nil {
		t.Fatalf("drain: %v", err)
	}
	p.nc.Close()

	// A crash mid-stream: the window is spent and never refilled, so the
	// parser is blocked waiting for credit when Kill lands.
	a = startAgent(t, Config{LogDir: dir, Dial: fc.dial})
	p = fc.accept(t, 128)
	for got := 0; got < 128; {
		typ, payload := p.read()
		if typ == wire.TypeOpen {
			o, _ := wire.DecodeOpen(payload)
			p.write(wire.TypeResume, wire.EncodeResume(wire.Resume{SourceID: o.SourceID}))
		} else if b, err := wire.DecodeBatch(payload); typ == wire.TypeBatch && err == nil {
			got += b.Records()
		}
	}
	a.Kill()
	p.nc.Close()
	if after := settle(); after > before {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines before, %d after Stop and Kill:\n%s", before, after, buf)
	}
}

// TestLostCollectorIsNotConnected: once the collector hangs up, the agent
// reports itself disconnected — Status, and /healthz with 503 and a false
// wire probe — for as long as it is redialling, although the credit the
// lost session granted was never spent.
func TestLostCollectorIsNotConnected(t *testing.T) {
	fc := newFakeCollector()
	a := startAgent(t, Config{LogDir: t.TempDir(), Dial: fc.dial,
		ReconnectBase: time.Millisecond, ReconnectMax: time.Millisecond})
	p := fc.accept(t, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for !a.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatal("agent never reported the session as connected")
		}
		time.Sleep(time.Millisecond)
	}
	p.nc.Close()
	// The next dial means the lost session has returned; its Hello waits
	// unread on the pipe, so the agent stays up and unconnected.
	var next net.Conn
	select {
	case next = <-fc.conns:
	case <-time.After(10 * time.Second):
		t.Fatal("agent never redialled")
	}
	defer next.Close()
	if a.Status().Connected {
		t.Error("Status().Connected is true while redialling a lost collector")
	}
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct {
		Probes map[string]bool `json:"probes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || body.Probes["wire"] {
		t.Errorf("/healthz while redialling: %d %s, want 503 with wire false", rec.Code, rec.Body)
	}
	a.Kill()
}
