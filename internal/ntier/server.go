package ntier

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/resources"
)

// TierSpec configures one tier's machine and software limits.
type TierSpec struct {
	Node resources.NodeConfig
	// Workers is the software concurrency limit (Apache MaxClients, Tomcat
	// maxThreads, C-JDBC/MySQL connection pool size).
	Workers int
	// Conns caps the persistent connections to the downstream tier;
	// defaults to Workers when zero.
	Conns int
	// BaseLogBytes is the native per-visit logging volume with event
	// monitors disabled (access log, error log). Event monitors roughly
	// double it (Figure 10).
	BaseLogBytes int
	// BaseLogCPU is the CPU cost of native logging per visit.
	BaseLogCPU time.Duration
}

// Server is one tier instance: a node plus its worker pool and connection
// pools, with arrival/departure accounting for ground-truth queue lengths.
type Server struct {
	eng  *des.Engine
	kind TierKind
	name string
	node *resources.Node
	pool *des.Resource
	// conns feeds calls to the downstream tier; nil at the last tier.
	conns *connPool

	spec TierSpec

	observers []VisitObserver

	// inflight counts visits between UA and UD: the instantaneous queue
	// length ground truth (queued + in service).
	inflight     int
	peakInflight int
	visits       uint64

	// logAccumKB batches log-file bytes for periodic background writeback.
	logAccumKB float64
	extraLogKB float64 // cumulative monitor-added bytes, for Fig 10
	baseLogKB  float64 // cumulative native log bytes
}

// newServer builds a tier server; downstreamConns may be zero at the DB tier.
func newServer(eng *des.Engine, kind TierKind, spec TierSpec) *Server {
	if spec.Workers <= 0 {
		panic(fmt.Sprintf("ntier: tier %v with %d workers", kind, spec.Workers))
	}
	s := &Server{
		eng:  eng,
		kind: kind,
		name: spec.Node.Name,
		node: resources.NewNode(eng, spec.Node),
		pool: des.NewResource(eng, spec.Node.Name+"/workers", spec.Workers),
		spec: spec,
	}
	conns := spec.Conns
	if conns == 0 {
		conns = spec.Workers
	}
	if kind != TierDB {
		s.conns = newConnPool(spec.Node.Name, conns)
	}
	return s
}

// Name returns the server's hostname (e.g. "apache").
func (s *Server) Name() string { return s.name }

// Kind returns the tier role.
func (s *Server) Kind() TierKind { return s.kind }

// Node exposes the machine for resource monitors.
func (s *Server) Node() *resources.Node { return s.node }

// Spec returns the tier configuration.
func (s *Server) Spec() TierSpec { return s.spec }

// Workers returns the worker-pool resource (for queue inspection).
func (s *Server) Workers() *des.Resource { return s.pool }

// Inflight returns the instantaneous number of requests resident at this
// tier (queued plus in service) — the ground-truth queue length.
func (s *Server) Inflight() int { return s.inflight }

// PeakInflight returns the maximum observed queue length.
func (s *Server) PeakInflight() int { return s.peakInflight }

// Visits returns the number of completed visits.
func (s *Server) Visits() uint64 { return s.visits }

// Observe registers a visit observer (an event monitor).
func (s *Server) Observe(o VisitObserver) {
	if o == nil {
		panic("ntier: nil visit observer")
	}
	s.observers = append(s.observers, o)
}

// arrive marks a visit's UA instant.
func (s *Server) arrive() {
	s.inflight++
	if s.inflight > s.peakInflight {
		s.peakInflight = s.inflight
	}
}

// depart marks a visit's UD instant and notifies observers.
func (s *Server) depart(v *Visit) {
	if s.inflight <= 0 {
		panic(fmt.Sprintf("ntier: %s inflight underflow", s.name))
	}
	s.inflight--
	s.visits++
	// Native logging happens on every visit regardless of monitoring.
	s.ChargeLog(s.spec.BaseLogBytes, s.spec.BaseLogCPU, false)
	for _, o := range s.observers {
		o.OnVisitComplete(v)
	}
}

// ChargeLog accounts one log record: bytes dirty the page cache and join
// the periodic writeback batch; cpu is burned in system mode. extra marks
// monitor-added volume (tracked separately for the Figure 10 comparison).
func (s *Server) ChargeLog(bytes int, cpu time.Duration, extra bool) {
	if bytes < 0 {
		panic(fmt.Sprintf("ntier: negative log size %d", bytes))
	}
	if bytes > 0 {
		s.node.Mem.Dirty(bytes)
		kb := float64(bytes) / 1024
		s.logAccumKB += kb
		if extra {
			s.extraLogKB += kb
		} else {
			s.baseLogKB += kb
		}
	}
	if cpu > 0 {
		s.node.CPU.Exec(cpu, resources.ModeSystem, nil)
	}
}

// LogVolumeKB returns cumulative native and monitor-added log bytes.
func (s *Server) LogVolumeKB() (baseKB, extraKB float64) {
	return s.baseLogKB, s.extraLogKB
}

// startLogWriteback schedules the periodic background flush of accumulated
// log bytes to the node's disk, the mechanism whose IOWait cost Figure 10
// measures.
func (s *Server) startLogWriteback(period time.Duration, until des.Time) {
	s.eng.Every(des.Time(period), period, func(now des.Time) bool {
		if s.logAccumKB >= 1 {
			s.node.Disk.WriteAsync(int(s.logAccumKB * 1024))
			s.logAccumKB = 0
		}
		return now >= until
	})
}
