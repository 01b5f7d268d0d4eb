package ntier

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/dist"
	"github.com/gt-elba/milliscope/internal/resources"
	"github.com/gt-elba/milliscope/internal/rubbos"
)

// Config parameterizes a testbed run.
type Config struct {
	// Users is the number of concurrent emulated users ("workload" in the
	// paper's figures).
	Users int
	// Mix is the RUBBoS workload mix.
	Mix rubbos.Mix
	// Duration is how long new requests are issued; in-flight requests
	// drain afterwards.
	Duration time.Duration
	// ThinkTime is the mean exponential think time between interactions.
	ThinkTime time.Duration
	// Seed drives every random stream in the run.
	Seed int64

	// Tier specifications, front to back.
	Web, App, Mid, DB TierSpec

	// NetLatency is the mean one-way inter-tier message latency.
	NetLatency time.Duration
	// DBMissProb is the probability a query misses the buffer pool and
	// reads from disk.
	DBMissProb float64
	// DBMissReadKB is the size of a buffer-pool miss read.
	DBMissReadKB int
	// GroupCommitInterval batches MySQL redo-log flushes.
	GroupCommitInterval time.Duration
	// LogWritebackPeriod is how often accumulated log bytes are written
	// back to each node's disk.
	LogWritebackPeriod time.Duration

	// RetainVisits keeps ground-truth visit records in memory (metrics and
	// accuracy validation read them).
	RetainVisits bool
}

// DefaultConfig returns the four-tier testbed matching the paper's setup:
// one node each for Apache, Tomcat, C-JDBC and MySQL.
func DefaultConfig() Config {
	return Config{
		Users:     1000,
		Mix:       rubbos.ReadWrite,
		Duration:  30 * time.Second,
		ThinkTime: 7 * time.Second,
		Seed:      1,
		Web: TierSpec{
			Node: resources.NodeConfig{
				Name: "apache", Cores: 8,
				Disk:        resources.DefaultDiskConfig(),
				Memory:      resources.DefaultMemoryConfig(),
				ClockOffset: 180 * time.Microsecond,
			},
			Workers: 200, BaseLogBytes: 150, BaseLogCPU: 12 * time.Microsecond,
		},
		App: TierSpec{
			Node: resources.NodeConfig{
				Name: "tomcat", Cores: 8,
				Disk:        resources.DefaultDiskConfig(),
				Memory:      resources.DefaultMemoryConfig(),
				ClockOffset: -240 * time.Microsecond,
			},
			Workers: 120, BaseLogBytes: 90, BaseLogCPU: 10 * time.Microsecond,
		},
		Mid: TierSpec{
			Node: resources.NodeConfig{
				Name: "cjdbc", Cores: 4,
				Disk:        resources.DefaultDiskConfig(),
				Memory:      resources.DefaultMemoryConfig(),
				ClockOffset: 90 * time.Microsecond,
			},
			// C-JDBC natively logs each proxied request.
			Workers: 100, BaseLogBytes: 120, BaseLogCPU: 8 * time.Microsecond,
		},
		DB: TierSpec{
			Node: resources.NodeConfig{
				Name: "mysql", Cores: 8,
				// Database disk with a write cache: much lower positioning
				// cost than the log disks on the other tiers.
				Disk:        resources.DiskConfig{SeekTime: 500 * time.Microsecond, BandwidthMBps: 200},
				Memory:      resources.DefaultMemoryConfig(),
				ClockOffset: -60 * time.Microsecond,
			},
			// Native MySQL logging includes the binlog and error log.
			Workers: 80, BaseLogBytes: 150, BaseLogCPU: 8 * time.Microsecond,
		},
		NetLatency:          150 * time.Microsecond,
		DBMissProb:          0.015,
		DBMissReadKB:        16,
		GroupCommitInterval: 5 * time.Millisecond,
		LogWritebackPeriod:  time.Second,
	}
}

// System is the assembled four-tier testbed.
type System struct {
	Eng *des.Engine
	WL  *rubbos.Workload

	Web, App, Mid, DB *Server

	cfg     Config
	client  *resources.Node
	commit  *groupCommit
	capture MessageObserver

	srcService *dist.Source
	srcNet     *dist.Source
	srcDB      *dist.Source
	// srcFault feeds injector randomness (convoy hold times, jitter
	// spread). A dedicated stream derived from cfg.Seed keeps injected
	// scenarios deterministic per seed without perturbing the service,
	// network or DB draws of a fault-free run.
	srcFault *dist.Source

	// dbLock serializes queries through one row/table lock while a lock
	// convoy is armed (capacity 1; idle otherwise).
	dbLock *des.Resource
	// Armed fault windows, consulted on the hot paths below.
	jitters []linkJitter
	convoy  *convoyWindow
	expiry  *missWindow

	nextSerial uint64

	// GroundTruth holds every completed visit when RetainVisits is set.
	GroundTruth []*Visit
}

// New assembles a testbed from the configuration.
func New(cfg Config) *System {
	if cfg.Users <= 0 {
		panic(fmt.Sprintf("ntier: %d users", cfg.Users))
	}
	if cfg.Duration <= 0 {
		panic(fmt.Sprintf("ntier: non-positive duration %v", cfg.Duration))
	}
	if cfg.ThinkTime <= 0 {
		panic(fmt.Sprintf("ntier: non-positive think time %v", cfg.ThinkTime))
	}
	if cfg.DBMissProb < 0 || cfg.DBMissProb > 1 {
		panic(fmt.Sprintf("ntier: miss probability %v", cfg.DBMissProb))
	}
	eng := des.NewEngine()
	root := dist.NewSource(cfg.Seed)
	sys := &System{
		Eng:        eng,
		WL:         rubbos.Standard(cfg.Mix),
		cfg:        cfg,
		srcService: root.Derive("service"),
		srcNet:     root.Derive("net"),
		srcDB:      root.Derive("db"),
		srcFault:   root.Derive("fault"),
	}
	sys.dbLock = des.NewResource(eng, "mysql/lock", 1)
	sys.Web = NewServer(eng, TierWeb, cfg.Web)
	sys.App = NewServer(eng, TierApp, cfg.App)
	sys.Mid = NewServer(eng, TierMiddleware, cfg.Mid)
	sys.DB = NewServer(eng, TierDB, cfg.DB)
	sys.client = resources.NewNode(eng, resources.NodeConfig{
		Name: "client", Cores: 64,
		Disk:   resources.DefaultDiskConfig(),
		Memory: resources.DefaultMemoryConfig(),
	})
	sys.commit = newGroupCommit(eng, sys.DB.node.Disk, cfg.GroupCommitInterval)
	return sys
}

// Config returns the run configuration.
func (sys *System) Config() Config { return sys.cfg }

// Servers returns the tiers front to back.
func (sys *System) Servers() []*Server {
	return []*Server{sys.Web, sys.App, sys.Mid, sys.DB}
}

// ServerByName returns the named tier, or nil.
func (sys *System) ServerByName(name string) *Server {
	for _, s := range sys.Servers() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// SetCapture installs the passive network tap (nil disables it).
func (sys *System) SetCapture(o MessageObserver) { sys.capture = o }

// CommitFlushes returns the number of group-commit disk writes so far.
func (sys *System) CommitFlushes() uint64 { return sys.commit.Flushes() }

// StartBackground launches per-node housekeeping (periodic log writeback)
// that runs until the given virtual time.
func (sys *System) StartBackground(until des.Time) {
	for _, s := range sys.Servers() {
		s.startLogWriteback(sys.cfg.LogWritebackPeriod, until)
	}
}

// demand perturbs a median service demand.
func (sys *System) demand(median time.Duration) time.Duration {
	if median <= 0 {
		return 0
	}
	return rubbos.SampleDemand(sys.srcService, median)
}

func (sys *System) wireBytes(base, spread int) int {
	if spread <= 0 {
		return base
	}
	return base + sys.srcNet.Intn(spread)
}

// transmit moves one message between nodes, charging NICs, applying wire
// latency, and reporting to the network tap on arrival.
func (sys *System) transmit(src, dst *resources.Node, conn string, kind MsgKind,
	bytes int, req *Request, after func()) {
	sent := sys.Eng.Now()
	src.NetSend(bytes)
	lat := sys.srcNet.Jitter(sys.cfg.NetLatency, 0.4)
	lat += sys.jitterExtra(src.Name(), dst.Name())
	sys.Eng.After(lat, func() {
		dst.NetRecv(bytes)
		if sys.capture != nil {
			sys.capture.OnMessage(Message{
				Conn: conn, Src: src.Name(), Dst: dst.Name(), Kind: kind,
				SentAt: sent, RecvAt: sys.Eng.Now(), Bytes: bytes,
				ReqSerial: req.Serial,
			})
		}
		after()
	})
}

func (sys *System) finishVisit(s *Server, v *Visit) {
	s.depart(v)
	if sys.cfg.RetainVisits {
		sys.GroundTruth = append(sys.GroundTruth, v)
	}
}

// Submit injects a request from the client; done runs when the response
// reaches the client. The caller fills Session and interaction fields.
func (sys *System) Submit(req *Request, done func()) {
	sys.nextSerial++
	req.Serial = sys.nextSerial
	req.SubmitAt = sys.Eng.Now()
	conn := fmt.Sprintf("client/s%05d", req.Session)
	sys.transmit(sys.client, sys.Web.node, conn, MsgRequest,
		sys.wireBytes(500, 300), req, func() {
			sys.webVisit(req, conn, func() {
				req.DoneAt = sys.Eng.Now()
				done()
			})
		})
}

// webVisit executes the Apache tier: parse, proxy to Tomcat, render, and
// return the response to the client.
func (sys *System) webVisit(req *Request, upConn string, done func()) {
	s := sys.Web
	it := req.Interaction
	v := &Visit{Req: req, Server: s, UA: sys.Eng.Now()}
	s.arrive()
	s.pool.Acquire(func() {
		s.node.CPU.Exec(sys.demand(it.ApacheCPU*7/10), resources.ModeUser, func() {
			s.conns.Acquire(func(conn string) {
				// DS is stamped once a connection is held: time spent
				// blocked on an exhausted pool is tier-local residence,
				// not network transit.
				v.DS = sys.Eng.Now()
				sys.transmit(s.node, sys.App.node, conn, MsgRequest,
					sys.wireBytes(600, 250), req, func() {
						sys.appVisit(req, conn, func() {
							v.DR = sys.Eng.Now()
							s.conns.Put(conn)
							// Rendering the response writes the access-log record;
							// dirty-page throttling blocks here during recycling.
							s.node.Mem.ThrottleWrite(func() {
								s.node.CPU.Exec(sys.demand(it.ApacheCPU*3/10), resources.ModeUser, func() {
									v.UD = sys.Eng.Now()
									sys.finishVisit(s, v)
									s.pool.Release()
									sys.transmit(s.node, sys.client, upConn, MsgResponse,
										it.RespKB*1024, req, done)
								})
							})
						})
					})
			})
		})
	})
}

// appVisit executes the Tomcat tier: servlet work plus a sequence of
// synchronous queries through C-JDBC. onResp runs at the web tier when the
// response message arrives back.
func (sys *System) appVisit(req *Request, upConn string, onResp func()) {
	s := sys.App
	it := req.Interaction
	v := &Visit{Req: req, Server: s, UA: sys.Eng.Now()}
	s.arrive()
	s.pool.Acquire(func() {
		s.node.CPU.Exec(sys.demand(it.TomcatCPU/2), resources.ModeUser, func() {
			finish := func() {
				// Servlet log write; throttled during dirty-page recycling.
				s.node.Mem.ThrottleWrite(func() {
					s.node.CPU.Exec(sys.demand(it.TomcatCPU/5), resources.ModeUser, func() {
						v.UD = sys.Eng.Now()
						sys.finishVisit(s, v)
						s.pool.Release()
						sys.transmit(s.node, sys.Web.node, upConn, MsgResponse,
							it.RespKB*768, req, onResp)
					})
				})
			}
			if it.Queries == 0 {
				finish()
				return
			}
			s.conns.Acquire(func(conn string) {
				interCPU := time.Duration(float64(it.TomcatCPU) * 0.3 / float64(it.Queries))
				qi := 0
				var next func()
				next = func() {
					if qi == 0 {
						v.DS = sys.Eng.Now()
					}
					sys.transmit(s.node, sys.Mid.node, conn, MsgRequest,
						sys.wireBytes(320, 120), req, func() {
							sys.midVisit(req, qi, conn, func() {
								v.DR = sys.Eng.Now()
								qi++
								if qi < it.Queries {
									s.node.CPU.Exec(sys.demand(interCPU), resources.ModeUser, next)
									return
								}
								s.conns.Put(conn)
								finish()
							})
						})
				}
				next()
			})
		})
	})
}

// midVisit executes one query at the C-JDBC middleware tier.
func (sys *System) midVisit(req *Request, qi int, upConn string, onResp func()) {
	s := sys.Mid
	it := req.Interaction
	v := &Visit{Req: req, Server: s, Seq: qi, UA: sys.Eng.Now(), SQL: it.SQL}
	s.arrive()
	s.pool.Acquire(func() {
		s.node.CPU.Exec(sys.demand(it.CJDBCCPU*7/10), resources.ModeUser, func() {
			s.conns.Acquire(func(conn string) {
				v.DS = sys.Eng.Now()
				sys.transmit(s.node, sys.DB.node, conn, MsgRequest,
					sys.wireBytes(300, 100), req, func() {
						sys.dbVisit(req, qi, conn, func() {
							v.DR = sys.Eng.Now()
							s.conns.Put(conn)
							s.node.CPU.Exec(sys.demand(it.CJDBCCPU*3/10), resources.ModeUser, func() {
								v.UD = sys.Eng.Now()
								sys.finishVisit(s, v)
								s.pool.Release()
								sys.transmit(s.node, sys.App.node, upConn, MsgResponse,
									queryRespBytes(it), req, onResp)
							})
						})
					})
			})
		})
	})
}

// dbVisit executes one query at MySQL: CPU, a possible buffer-pool miss
// read, and a group-committed redo write for the final query of a write
// interaction.
func (sys *System) dbVisit(req *Request, qi int, upConn string, onResp func()) {
	s := sys.DB
	it := req.Interaction
	v := &Visit{Req: req, Server: s, Seq: qi, UA: sys.Eng.Now(), SQL: it.SQL}
	s.arrive()
	s.pool.Acquire(func() {
		run := func() {
			s.node.CPU.Exec(sys.demand(it.QueryCPU), resources.ModeUser, func() {
				finish := func() {
					v.UD = sys.Eng.Now()
					sys.finishVisit(s, v)
					s.pool.Release()
					sys.transmit(s.node, sys.Mid.node, upConn, MsgResponse,
						queryRespBytes(it), req, onResp)
				}
				commit := func() {
					if it.Write && qi == it.Queries-1 {
						sys.commit.Enqueue(it.CommitKB, finish)
						return
					}
					finish()
				}
				missProb, readKB := sys.missModel()
				if missProb > 0 && sys.srcDB.Float64() < missProb {
					s.node.Disk.Read(readKB*1024, commit)
					return
				}
				commit()
			})
		}
		// An armed lock convoy serializes queries through one lock; the
		// hold is pure blocking (the owner waits on I/O inside the
		// critical section), so no resource gauge moves while the DB
		// tier's queue balloons.
		if hold := sys.convoyHold(); hold > 0 {
			sys.dbLock.Acquire(func() {
				sys.Eng.After(hold, func() {
					sys.dbLock.Release()
					run()
				})
			})
			return
		}
		run()
	})
}

// missModel returns the effective buffer-pool miss probability and read
// size, honouring an armed cache-expiry window.
func (sys *System) missModel() (float64, int) {
	if e := sys.expiry; e != nil {
		if now := sys.Eng.Now(); now >= e.from && now < e.to {
			return e.missProb, e.readKB
		}
	}
	return sys.cfg.DBMissProb, sys.cfg.DBMissReadKB
}

// convoyHold samples the lock-hold time if a convoy window is active, else 0.
func (sys *System) convoyHold() time.Duration {
	c := sys.convoy
	if c == nil {
		return 0
	}
	if now := sys.Eng.Now(); now < c.from || now >= c.to {
		return 0
	}
	return sys.srcFault.Jitter(c.hold, 0.4)
}

// jitterExtra returns the extra one-way latency armed for the (src, dst)
// link at the current instant. Jitter windows apply to both directions of
// their link.
func (sys *System) jitterExtra(src, dst string) time.Duration {
	if len(sys.jitters) == 0 {
		return 0
	}
	now := sys.Eng.Now()
	var total time.Duration
	for _, j := range sys.jitters {
		onLink := (j.src == src && j.dst == dst) || (j.src == dst && j.dst == src)
		if onLink && now >= j.from && now < j.to {
			total += sys.srcFault.Jitter(j.extra, 0.5)
		}
	}
	return total
}

func queryRespBytes(it rubbos.Interaction) int {
	if it.Queries <= 0 {
		return 256
	}
	b := it.RespKB * 1024 / (2 * it.Queries)
	if b < 256 {
		b = 256
	}
	return b
}
