package ntier

import (
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/rubbos"
)

// smallConfig returns a fast trial for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 60
	cfg.Duration = 2 * time.Second
	cfg.ThinkTime = 300 * time.Millisecond
	cfg.Seed = 42
	cfg.RetainVisits = true
	return cfg
}

func TestRunCompletesAndDrains(t *testing.T) {
	sys := New(smallConfig())
	d := Run(sys)
	if len(d.Completed) == 0 {
		t.Fatal("no requests completed")
	}
	// All issued requests eventually complete (closed loop drains).
	if uint64(len(d.Completed)) != d.Issued() {
		t.Fatalf("completed %d != issued %d", len(d.Completed), d.Issued())
	}
	for _, s := range sys.Servers() {
		if s.Inflight() != 0 {
			t.Fatalf("%s still has %d inflight after drain", s.Name(), s.Inflight())
		}
	}
	// Expected closed-loop throughput: users/think ≈ 200 req/s for 2s.
	st := d.Stats(200 * time.Millisecond)
	if st.Throughput < 100 || st.Throughput > 320 {
		t.Fatalf("throughput %.1f req/s implausible for 60 users / 300ms think", st.Throughput)
	}
	if st.MeanRT <= 0 || st.MeanRT > 100*time.Millisecond {
		t.Fatalf("mean RT %v implausible for unloaded system", st.MeanRT)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, time.Duration) {
		sys := New(smallConfig())
		d := Run(sys)
		var sum time.Duration
		for _, r := range d.Completed {
			sum += time.Duration(r.DoneAt - r.SubmitAt)
		}
		return len(d.Completed), sum
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != n2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", n1, s1, n2, s2)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := smallConfig()
	d1 := Run(New(cfg))
	cfg.Seed = 43
	d2 := Run(New(cfg))
	if len(d1.Completed) == len(d2.Completed) {
		var s1, s2 time.Duration
		for _, r := range d1.Completed {
			s1 += time.Duration(r.DoneAt - r.SubmitAt)
		}
		for _, r := range d2.Completed {
			s2 += time.Duration(r.DoneAt - r.SubmitAt)
		}
		if s1 == s2 {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestVisitTimestampInvariants(t *testing.T) {
	sys := New(smallConfig())
	Run(sys)
	if len(sys.GroundTruth) == 0 {
		t.Fatal("no ground-truth visits retained")
	}
	for _, v := range sys.GroundTruth {
		if v.UA > v.UD {
			t.Fatalf("%s visit: UA %v after UD %v", v.Server.Name(), v.UA, v.UD)
		}
		if v.DS != 0 || v.DR != 0 {
			if !(v.UA <= v.DS && v.DS <= v.DR && v.DR <= v.UD) {
				t.Fatalf("%s visit: boundary order violated UA=%v DS=%v DR=%v UD=%v",
					v.Server.Name(), v.UA, v.DS, v.DR, v.UD)
			}
		}
		if v.LocalTime() < 0 {
			t.Fatalf("negative local time at %s", v.Server.Name())
		}
	}
}

func TestVisitFanout(t *testing.T) {
	sys := New(smallConfig())
	d := Run(sys)
	// Count visits per tier per request for a handful of requests.
	byReq := map[uint64]map[string]int{}
	for _, v := range sys.GroundTruth {
		m := byReq[v.Req.Serial]
		if m == nil {
			m = map[string]int{}
			byReq[v.Req.Serial] = m
		}
		m[v.Server.Name()]++
	}
	checked := 0
	for _, r := range d.Completed {
		m := byReq[r.Serial]
		if m["apache"] != 1 {
			t.Fatalf("request %d: %d apache visits, want 1", r.Serial, m["apache"])
		}
		if m["tomcat"] != 1 {
			t.Fatalf("request %d: %d tomcat visits, want 1", r.Serial, m["tomcat"])
		}
		q := r.Interaction.Queries
		if m["cjdbc"] != q || m["mysql"] != q {
			t.Fatalf("request %d (%s): cjdbc=%d mysql=%d visits, want %d each",
				r.Serial, r.Interaction.Name, m["cjdbc"], m["mysql"], q)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no requests checked")
	}
}

func TestHappensBeforeAcrossTiers(t *testing.T) {
	sys := New(smallConfig())
	Run(sys)
	// For each request: apache.DS <= tomcat.UA and tomcat.UD <= apache.DR
	// in virtual time (no clock skew in ground truth).
	web := map[uint64]*Visit{}
	app := map[uint64]*Visit{}
	for _, v := range sys.GroundTruth {
		switch v.Server.Kind() {
		case TierWeb:
			web[v.Req.Serial] = v
		case TierApp:
			app[v.Req.Serial] = v
		}
	}
	n := 0
	for serial, wv := range web {
		av, ok := app[serial]
		if !ok {
			t.Fatalf("request %d has web visit but no app visit", serial)
		}
		if !(wv.DS <= av.UA && av.UD <= wv.DR) {
			t.Fatalf("request %d: nesting violated web[DS=%v DR=%v] app[UA=%v UD=%v]",
				serial, wv.DS, wv.DR, av.UA, av.UD)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no request pairs checked")
	}
}

func TestMessageCapture(t *testing.T) {
	sys := New(smallConfig())
	var msgs []Message
	sys.SetCapture(captureFunc(func(m Message) { msgs = append(msgs, m) }))
	d := Run(sys)
	if len(msgs) == 0 {
		t.Fatal("no messages captured")
	}
	reqMsgs, respMsgs := 0, 0
	for _, m := range msgs {
		if m.SentAt > m.RecvAt {
			t.Fatalf("message received before sent: %+v", m)
		}
		if m.Conn == "" || m.Src == "" || m.Dst == "" {
			t.Fatalf("message with empty endpoint: %+v", m)
		}
		switch m.Kind {
		case MsgRequest:
			reqMsgs++
		case MsgResponse:
			respMsgs++
		default:
			t.Fatalf("unknown message kind %v", m.Kind)
		}
	}
	if reqMsgs != respMsgs {
		t.Fatalf("unbalanced request/response messages: %d vs %d", reqMsgs, respMsgs)
	}
	// Per completed request: 2 hops client<->web fixed plus 2 per tier call.
	if len(d.Completed) == 0 {
		t.Fatal("no completed requests")
	}
}

type captureFunc func(Message)

func (f captureFunc) OnMessage(m Message) { f(m) }

func TestVisitObserverSeesEveryVisit(t *testing.T) {
	sys := New(smallConfig())
	counts := map[string]uint64{}
	for _, s := range sys.Servers() {
		s := s
		s.Observe(observerFunc(func(v *Visit) {
			counts[v.Server.Name()]++
			if v.UD == 0 {
				t.Errorf("observer called before UD set")
			}
		}))
	}
	Run(sys)
	for _, s := range sys.Servers() {
		if counts[s.Name()] != s.Visits() {
			t.Fatalf("%s observer saw %d visits, server counted %d",
				s.Name(), counts[s.Name()], s.Visits())
		}
		if counts[s.Name()] == 0 {
			t.Fatalf("%s saw no visits", s.Name())
		}
	}
}

type observerFunc func(*Visit)

func (f observerFunc) OnVisitComplete(v *Visit) { f(v) }

func TestWriteInteractionsCommit(t *testing.T) {
	cfg := smallConfig()
	cfg.Mix = rubbos.ReadWrite
	sys := New(cfg)
	Run(sys)
	if sys.CommitFlushes() == 0 {
		t.Fatal("read-write mix produced no group-commit flushes")
	}
	_, wo, _, wk := sys.DB.Node().Disk.Counters()
	if wo == 0 || wk == 0 {
		t.Fatal("no DB disk writes recorded")
	}
}

func TestBrowseOnlyNoCommits(t *testing.T) {
	cfg := smallConfig()
	cfg.Mix = rubbos.BrowseOnly
	sys := New(cfg)
	Run(sys)
	if sys.CommitFlushes() != 0 {
		t.Fatalf("browse-only mix issued %d commit flushes", sys.CommitFlushes())
	}
}

func TestRequestIDFixedWidth(t *testing.T) {
	r := &Request{Serial: 123}
	id := r.ID()
	if id != "req-0000000123" {
		t.Fatalf("ID() = %q", id)
	}
	r2 := &Request{Serial: 9999999999}
	if len(r2.ID()) != len(id) {
		t.Fatal("request IDs are not fixed width")
	}
}

func TestConnPoolReuse(t *testing.T) {
	p := newConnPool("web", 3)
	var a, b, c string
	p.Acquire(func(conn string) { a = conn })
	p.Acquire(func(conn string) { b = conn })
	if a == b {
		t.Fatal("pool handed out duplicate connection")
	}
	p.Put(a)
	p.Acquire(func(conn string) { c = conn })
	if c != a {
		t.Fatalf("pool did not reuse freed conn: got %q want %q", c, a)
	}
	if p.Waits() != 0 {
		t.Fatalf("un-exhausted pool recorded %d waits", p.Waits())
	}
}

func TestConnPoolExhaustionQueuesFIFO(t *testing.T) {
	p := newConnPool("x", 1)
	var held string
	p.Acquire(func(conn string) { held = conn })
	var got []string
	p.Acquire(func(conn string) { got = append(got, "first:"+conn) })
	p.Acquire(func(conn string) { got = append(got, "second:"+conn) })
	if len(got) != 0 {
		t.Fatalf("exhausted pool granted immediately: %v", got)
	}
	if p.Waiting() != 2 || p.Waits() != 2 {
		t.Fatalf("Waiting=%d Waits=%d, want 2/2", p.Waiting(), p.Waits())
	}
	p.Put(held)
	if len(got) != 1 || got[0] != "first:"+held {
		t.Fatalf("head waiter not granted FIFO: %v", got)
	}
	p.Put(held)
	if len(got) != 2 || got[1] != "second:"+held {
		t.Fatalf("second waiter not granted FIFO: %v", got)
	}
	if p.Waiting() != 0 {
		t.Fatalf("%d waiters left after drain", p.Waiting())
	}
}

func TestLocalTime(t *testing.T) {
	v := &Visit{UA: 10, DS: 20, DR: 80, UD: 100}
	if lt := v.LocalTime(); lt != 30 {
		t.Fatalf("LocalTime = %v, want 30", lt)
	}
	leaf := &Visit{UA: 10, UD: 25}
	if lt := leaf.LocalTime(); lt != 15 {
		t.Fatalf("leaf LocalTime = %v, want 15", lt)
	}
}

func TestLogVolumeAccumulates(t *testing.T) {
	sys := New(smallConfig())
	Run(sys)
	for _, s := range sys.Servers() {
		base, extra := s.LogVolumeKB()
		if base <= 0 {
			t.Fatalf("%s accumulated no native log bytes", s.Name())
		}
		if extra != 0 {
			t.Fatalf("%s has monitor log bytes with no monitors attached", s.Name())
		}
	}
}

func TestStatsWarmupFilters(t *testing.T) {
	sys := New(smallConfig())
	d := Run(sys)
	all := d.Stats(0)
	late := d.Stats(time.Second)
	if late.Requests >= all.Requests {
		t.Fatalf("warmup filter removed nothing: %d vs %d", late.Requests, all.Requests)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	for _, spec := range []TierSpec{cfg.Web, cfg.App, cfg.Mid, cfg.DB} {
		if spec.Workers <= 0 || spec.Node.Cores <= 0 || spec.Node.Name == "" {
			t.Fatalf("bad default tier spec: %+v", spec)
		}
	}
	if cfg.Web.Node.Name != "apache" || cfg.DB.Node.Name != "mysql" {
		t.Fatal("default tier names do not match the paper's stack")
	}
}

func TestServerByName(t *testing.T) {
	sys := New(smallConfig())
	if sys.ServerByName("tomcat") != sys.App {
		t.Fatal("ServerByName(tomcat) wrong")
	}
	if sys.ServerByName("nope") != nil {
		t.Fatal("unknown name returned a server")
	}
}

func TestQueueBuildsUnderDiskSeizure(t *testing.T) {
	// Seize the DB disk mid-run and verify upstream queues grow: the
	// pushback phenomenon the paper's Figure 6 shows.
	cfg := smallConfig()
	cfg.Users = 150
	cfg.ThinkTime = 200 * time.Millisecond
	cfg.Duration = 3 * time.Second
	sys := New(cfg)
	d := newDriver(sys)
	sys.StartBackground(des.Time(cfg.Duration))
	d.Start()

	// At t=1s occupy the DB disk with a long burst of writes.
	sys.Eng.At(des.Time(time.Second), func() {
		for i := 0; i < 60; i++ {
			sys.DB.Node().Disk.WriteAsync(1 << 20)
		}
	})
	var peakDuring int
	sys.Eng.Every(des.Time(time.Second), 10*time.Millisecond, func(now des.Time) bool {
		if q := sys.DB.Inflight(); q > peakDuring {
			peakDuring = q
		}
		return now > des.Time(1800*time.Millisecond)
	})
	sys.Eng.Run()

	if peakDuring < 20 {
		t.Fatalf("DB queue peaked at %d during disk seizure, expected pushback", peakDuring)
	}
	if sys.Web.PeakInflight() < 10 {
		t.Fatalf("apache queue peaked at %d, expected upstream pushback", sys.Web.PeakInflight())
	}
}

func BenchmarkTrialSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := smallConfig()
		cfg.RetainVisits = false
		sys := New(cfg)
		d := Run(sys)
		if len(d.Completed) == 0 {
			b.Fatal("no requests")
		}
	}
}
