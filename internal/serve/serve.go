// Package serve is the mscope observability service: one HTTP surface
// over a warehouse, whether that warehouse is a saved mScopeDB snapshot
// (`mscope serve --db`) or the live engine's, borrowed between records
// (`mscope live --serve`, `mscope collector --serve`). It answers MQL
// and vectorized window-aggregation queries, renders per-request
// waterfalls and critical-path flamegraphs, and exposes the diagnosis
// timeline with each verdict's full evidence.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/tracegraph"
)

// Config attaches the server to exactly one warehouse source.
type Config struct {
	// DB serves a saved warehouse snapshot (read-only, immutable), so the
	// diagnosis timeline and the slowest-request ranking are computed by
	// the first request that needs each and kept: an answer derived from
	// bytes that verified once stays the answer for that snapshot, and a
	// segment damaged after it was read is reported by the next request
	// that reads that file, not by a kept product.
	DB *mscopedb.DB
	// Pipeline serves a live engine's warehouse; every query borrows it
	// between records through the pipeline's WithDB gate, so readers
	// never race the loader.
	Pipeline *stream.Pipeline
}

// Server is the observability service. Build with New, mount Handler.
type Server struct {
	cfg     Config
	queries atomic.Int64
	renders atomic.Int64
	errs    atomic.Int64
	mux     *http.ServeMux
	// A snapshot's slowest maxTraces request IDs and rendered diagnosis,
	// each computed once; nil in live mode, whose warehouse grows.
	ranking  *memo[[]string]
	timeline *memo[[]diagEntry]
}

// memo holds one product of an immutable snapshot. The first get computes
// it under the mutex, so concurrent first requests compute it once; an
// error is returned and not kept, so the next get computes again.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	v    T
}

func (m *memo[T]) get(compute func() (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		v, err := compute()
		if err != nil {
			return v, err
		}
		m.v, m.done = v, true
	}
	return m.v, nil
}

// New validates the config and builds the service.
func New(cfg Config) (*Server, error) {
	if (cfg.DB == nil) == (cfg.Pipeline == nil) {
		return nil, fmt.Errorf("serve: attach exactly one of DB or Pipeline")
	}
	s := &Server{cfg: cfg}
	if cfg.DB != nil {
		s.ranking, s.timeline = new(memo[[]string]), new(memo[[]diagEntry])
	}
	mux := http.NewServeMux()
	// Every request is one serve/<endpoint> span of the self-telemetry:
	// one item, and one error when the answer is a 4xx or 5xx.
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			sp := selfobs.Begin(selfobs.PipeServe, endpoint, "-", "")
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r)
			sp.End(1, int64(sw.failed))
		})
	}
	route("GET /{$}", "index", s.handleIndex)
	route("GET /api/tables", "tables", s.handleTables)
	route("GET /api/query", "query", s.handleQuery)
	route("GET /api/window", "window", s.handleWindow)
	route("GET /api/traces", "traces", s.handleTraces)
	route("GET /api/trace/{reqid}", "trace", s.handleTrace)
	route("GET /api/flamegraph", "flamegraph", s.handleFlameJSON)
	route("GET /flamegraph.svg", "flamegraph", s.handleFlameSVG)
	route("GET /api/diagnosis", "diagnosis", s.handleDiagnosis)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /metrics", "metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// statusWriter notes whether the handler answered with an error status.
type statusWriter struct {
	http.ResponseWriter
	failed int
}

func (w *statusWriter) WriteHeader(code int) {
	if code >= 400 {
		w.failed = 1
	}
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler { return s.mux }

// withDB runs fn with the warehouse: directly in snapshot mode, or
// through the live pipeline's loader gate so fn never races an append.
func (s *Server) withDB(fn func(*mscopedb.DB)) {
	if s.cfg.Pipeline != nil {
		s.cfg.Pipeline.WithDB(fn)
		return
	}
	fn(s.cfg.DB)
}

// statusOf is the status an error from the warehouse is answered with: a
// committed segment that cannot be read back is the server's fault (500);
// anything else is the fallback the endpoint gives a request it cannot
// serve.
func statusOf(err error, fallback int) int {
	var seg *mscopedb.SegmentError
	if errors.As(err, &seg) {
		return http.StatusInternalServerError
	}
	return fallback
}

// fail renders one JSON error body and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- /api/tables -----------------------------------------------------

type colInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type tableInfo struct {
	Name    string    `json:"name"`
	Rows    int       `json:"rows"`
	Columns []colInfo `json:"columns"`
}

func (s *Server) tableInfos() []tableInfo {
	var out []tableInfo
	s.withDB(func(db *mscopedb.DB) {
		for _, name := range db.TableNames() {
			t, err := db.Table(name)
			if err != nil {
				continue
			}
			ti := tableInfo{Name: name, Rows: t.Rows()}
			for _, c := range t.Columns() {
				ti.Columns = append(ti.Columns, colInfo{Name: c.Name, Type: c.Type.String()})
			}
			out = append(out, ti)
		}
	})
	return out
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	promfmt.WriteJSON(w, http.StatusOK, s.tableInfos())
}

// --- /api/query ------------------------------------------------------

type queryResult struct {
	Cols []string   `json:"cols"`
	Rows [][]string `json:"rows"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter (an MQL statement)")
		return
	}
	s.queries.Add(1)
	var (
		out *mql.Output
		err error
	)
	s.withDB(func(db *mscopedb.DB) { out, err = mql.Run(db, q) })
	if err != nil {
		s.fail(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	promfmt.WriteJSON(w, http.StatusOK, queryResult{Cols: out.Cols, Rows: out.Rows})
}

// --- /api/window -----------------------------------------------------

// handleWindow is the vectorized window-aggregation endpoint: it builds
// the statement directly so the from/to bounds become time-column
// predicates, which the scan engine prunes through the sorted time
// index before the dense aggregation grid runs.
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	table, value := p.Get("table"), p.Get("value")
	if table == "" || value == "" {
		s.fail(w, http.StatusBadRequest, "table and value parameters are required")
		return
	}
	// The fn parameter is any case; empty and "mean" mean avg.
	name := strings.ToLower(p.Get("fn"))
	if name == "" || name == "mean" {
		name = "avg"
	}
	fn, err := mscopedb.ParseAggFn(name)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "unknown fn %q (want avg, max, min, sum, count, or p99)", p.Get("fn"))
		return
	}
	window := core.DefaultWindow
	if ws := p.Get("window"); ws != "" {
		window, err = time.ParseDuration(ws)
		if err != nil || window < time.Microsecond {
			s.fail(w, http.StatusBadRequest, "bad window %q: want a duration of at least 1us, like 50ms", ws)
			return
		}
	}
	timeCol := p.Get("time")
	if timeCol == "" {
		timeCol = "ltime"
	}
	st := &mql.Statement{
		Table:    table,
		Limit:    -1,
		Windowed: true,
		Window:   window,
		AggFn:    fn,
		AggCol:   value,
		TimeCol:  timeCol,
		GroupCol: p.Get("by"),
	}
	from, to := p.Get("from"), p.Get("to")
	var fromUS, toUS int64
	if from != "" {
		if fromUS, err = strconv.ParseInt(from, 10, 64); err != nil {
			s.fail(w, http.StatusBadRequest, "malformed time range: from=%q is not a microsecond epoch", from)
			return
		}
		st.Preds = append(st.Preds, mql.Pred{Col: timeCol, Op: mscopedb.OpGe, Value: from})
	}
	if to != "" {
		if toUS, err = strconv.ParseInt(to, 10, 64); err != nil {
			s.fail(w, http.StatusBadRequest, "malformed time range: to=%q is not a microsecond epoch", to)
			return
		}
		st.Preds = append(st.Preds, mql.Pred{Col: timeCol, Op: mscopedb.OpLt, Value: to})
	}
	if from != "" && to != "" && fromUS >= toUS {
		s.fail(w, http.StatusBadRequest, "malformed time range: from %d is not before to %d", fromUS, toUS)
		return
	}
	s.queries.Add(1)
	var (
		found bool
		out   *mql.Output
	)
	s.withDB(func(db *mscopedb.DB) {
		if found = db.HasTable(table); !found {
			return
		}
		out, err = mql.Exec(db, st)
	})
	if !found {
		s.fail(w, http.StatusNotFound, "no table %q in the warehouse", table)
		return
	}
	if err != nil {
		s.fail(w, statusOf(err, http.StatusBadRequest), "%v", err)
		return
	}
	promfmt.WriteJSON(w, http.StatusOK, queryResult{Cols: out.Cols, Rows: out.Rows})
}

// --- traces and flamegraphs ------------------------------------------

type traceSummary struct {
	ReqID    string  `json:"reqid"`
	RTUS     int64   `json:"rt_us"`
	Spans    int     `json:"spans"`
	Complete bool    `json:"complete"`
	Coverage float64 `json:"coverage"`
}

// maxTraces caps /api/traces' limit, and is how deep a snapshot's ranking
// of the slowest requests goes.
const maxTraces = 1000

// slowest reconstructs the n slowest requests, slowest first (ties broken
// by request ID for stable pagination): every request is ranked from one
// projected pass, only the n are built. A snapshot is ranked once, to
// maxTraces deep; every request still looks up the rows it shows.
func (s *Server) slowest(n int) (traces []*tracegraph.Trace, err error) {
	s.withDB(func(db *mscopedb.DB) {
		var ids []string
		if s.ranking == nil {
			ids, err = tracegraph.SlowestIDs(db, core.EventTables(), n)
		} else {
			ids, err = s.ranking.get(func() ([]string, error) {
				ids, err := tracegraph.SlowestIDs(db, core.EventTables(), maxTraces)
				for i := range ids {
					ids[i] = strings.Clone(ids[i]) // keep no decoded segment block alive
				}
				return ids, err
			})
			ids = ids[:min(n, len(ids))]
		}
		if err == nil {
			traces, err = tracegraph.LookupRanked(db, core.EventTables(), ids)
		}
	})
	return traces, err
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 || n > maxTraces {
			s.fail(w, http.StatusBadRequest, "bad limit %q: want 1 to %d", ls, maxTraces)
			return
		}
		limit = n
	}
	s.queries.Add(1)
	ordered, err := s.slowest(limit)
	if err != nil {
		s.fail(w, statusOf(err, http.StatusNotFound), "%v", err)
		return
	}
	out := make([]traceSummary, 0, len(ordered))
	for _, tr := range ordered {
		out = append(out, traceSummary{
			ReqID:    tr.ReqID,
			RTUS:     tr.ResponseTime().Microseconds(),
			Spans:    len(tr.Spans),
			Complete: tr.Complete(),
			Coverage: tr.Coverage(),
		})
	}
	promfmt.WriteJSON(w, http.StatusOK, out)
}

// flameFor resolves a request ID (empty means the slowest request) to
// its renderable flame: a lookup of that one request's rows.
func (s *Server) flameFor(reqid string) (*tracegraph.Flame, int, error) {
	if reqid == "" {
		ordered, err := s.slowest(1)
		if err != nil {
			return nil, statusOf(err, http.StatusNotFound), err
		}
		if len(ordered) == 0 {
			return nil, http.StatusNotFound, fmt.Errorf("no traces in the warehouse")
		}
		return tracegraph.BuildFlame(ordered[0]), 0, nil
	}
	var (
		traces map[string]*tracegraph.Trace
		err    error
	)
	s.withDB(func(db *mscopedb.DB) { traces, err = tracegraph.Lookup(db, core.EventTables(), reqid) })
	if err != nil {
		return nil, statusOf(err, http.StatusNotFound), err
	}
	tr, ok := traces[reqid]
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("no trace for request %q", reqid)
	}
	return tracegraph.BuildFlame(tr), 0, nil
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	f, code, err := s.flameFor(r.PathValue("reqid"))
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	promfmt.WriteJSON(w, http.StatusOK, f)
}

func (s *Server) handleFlameJSON(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	f, code, err := s.flameFor(r.URL.Query().Get("reqid"))
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	promfmt.WriteJSON(w, http.StatusOK, f)
}

func (s *Server) handleFlameSVG(w http.ResponseWriter, r *http.Request) {
	f, code, err := s.flameFor(r.URL.Query().Get("reqid"))
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	s.renders.Add(1)
	w.Header().Set("Content-Type", "image/svg+xml")
	_ = f.WriteSVG(w)
}

// --- /api/diagnosis --------------------------------------------------

type diagCause struct {
	Name         string  `json:"name"`
	Correlation  float64 `json:"correlation"`
	PeakInWindow float64 `json:"peak_in_window"`
}

// diagEntry is one verdict with its full evidence: the window, the
// cross-tier pushback signature, and every ranked resource candidate —
// not just the winning kind.
type diagEntry struct {
	Raised      *time.Time  `json:"raised,omitempty"`
	WatermarkUS int64       `json:"watermark_us,omitempty"`
	StartUS     int64       `json:"window_start_us"`
	EndUS       int64       `json:"window_end_us"`
	PeakUS      float64     `json:"peak_rt_us"`
	Kind        string      `json:"kind"`
	Node        string      `json:"node"`
	Verdict     string      `json:"verdict"`
	QueuesGrew  []string    `json:"queues_grew,omitempty"`
	CrossTier   bool        `json:"cross_tier"`
	Causes      []diagCause `json:"causes,omitempty"`
	Missing     []string    `json:"missing,omitempty"`
	stream.Wait             // of a live verdict; absent in batch mode
}

type diagTimeline struct {
	Source  string      `json:"source"`
	Entries []diagEntry `json:"entries"`
}

func diagFromWindow(wd core.WindowDiagnosis) diagEntry {
	e := diagEntry{
		StartUS:    wd.Window.StartMicros,
		EndUS:      wd.Window.EndMicros,
		PeakUS:     wd.Window.Peak,
		Kind:       wd.Kind.String(),
		Node:       wd.Node,
		Verdict:    wd.Verdict,
		QueuesGrew: wd.Pushback.Grew,
		CrossTier:  wd.Pushback.CrossTier,
	}
	for _, c := range wd.Causes {
		e.Causes = append(e.Causes, diagCause{
			Name: c.Name, Correlation: c.Correlation, PeakInWindow: c.PeakInWindow,
		})
	}
	return e
}

func (s *Server) handleDiagnosis(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	if p := s.cfg.Pipeline; p != nil {
		// Live mode: the online detector's alerts, evidence included.
		tl := diagTimeline{Source: "live", Entries: []diagEntry{}}
		for _, a := range p.Alerts() {
			e := diagFromWindow(a.Diagnosis)
			raised := a.Raised
			e.Raised = &raised
			e.WatermarkUS = a.WatermarkUS
			e.Missing = a.Missing
			e.Wait = a.Wait
			tl.Entries = append(tl.Entries, e)
		}
		promfmt.WriteJSON(w, http.StatusOK, tl)
		return
	}
	// Snapshot mode: the batch workflow at the detector's width, run by the
	// first request.
	entries, err := s.timeline.get(func() ([]diagEntry, error) {
		d, err := core.Diagnose(s.cfg.DB, core.DefaultWindow)
		if err != nil {
			return nil, err
		}
		return batchEntries(d), nil
	})
	if err != nil {
		s.fail(w, statusOf(err, http.StatusUnprocessableEntity), "diagnosis: %v", err)
		return
	}
	promfmt.WriteJSON(w, http.StatusOK, diagTimeline{Source: "batch", Entries: entries})
}

// batchEntries renders a batch diagnosis's windows, each carrying the
// sources the diagnosis lacked.
func batchEntries(d *core.Diagnosis) []diagEntry {
	entries := []diagEntry{}
	for _, wd := range d.Windows {
		e := diagFromWindow(wd)
		e.Missing = d.MissingSources
		entries = append(entries, e)
	}
	return entries
}

// --- readiness and metrics -------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probes := map[string]bool{}
	ok := true
	if p := s.cfg.Pipeline; p != nil {
		st := p.Status()
		probes["warehouse"] = true
		probes["detector"] = st.Running
		ok = st.Running
	} else {
		probes["warehouse"] = s.cfg.DB != nil
		ok = s.cfg.DB != nil
	}
	promfmt.WriteHealth(w, probes, ok)
}

// MetricsText renders the serve surface's own families through the
// shared promfmt writer. In live mode the engine's families come first —
// both sides use promfmt, so the concatenation still lints.
func (s *Server) MetricsText() string {
	tables, rows := 0, 0
	var indexBytes, indexEvictions int64
	s.withDB(func(db *mscopedb.DB) {
		for _, name := range db.TableNames() {
			if t, err := db.Table(name); err == nil {
				tables++
				rows += t.Rows()
			}
		}
		indexBytes, indexEvictions = db.IndexStats()
	})
	segsDecoded, _ := mscopedb.ScanStats()
	var w promfmt.Writer
	w.Counter(promfmt.Prefix+"serve_queries_total",
		"query and render requests answered", float64(s.queries.Load()))
	w.Counter(promfmt.Prefix+"serve_renders_total",
		"flamegraph SVGs rendered", float64(s.renders.Load()))
	w.Counter(promfmt.Prefix+"serve_errors_total",
		"requests answered with an error status", float64(s.errs.Load()))
	w.Gauge(promfmt.Prefix+"serve_tables",
		"tables in the attached warehouse", float64(tables))
	w.Gauge(promfmt.Prefix+"serve_rows",
		"rows across the attached warehouse", float64(rows))
	w.Counter(promfmt.Prefix+"db_segments_decoded_total",
		"segment files read and verified by queries, scans and lookups", float64(segsDecoded))
	w.Gauge(promfmt.Prefix+"db_index_bytes",
		"bytes of request-ID lookup indexes held in memory", float64(indexBytes))
	w.Counter(promfmt.Prefix+"db_index_evictions_total",
		"lookup indexes evicted to stay under the cap", float64(indexEvictions))
	if p := s.cfg.Pipeline; p != nil {
		return p.MetricsText() + w.String()
	}
	return w.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(s.MetricsText()))
}
