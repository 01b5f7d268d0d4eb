package stream

import (
	"net/http"
	"time"

	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/promfmt"
)

// SourceStatus is one tailed file's live state.
type SourceStatus struct {
	File        string `json:"file"`
	Table       string `json:"table"`
	State       string `json:"state"`
	Error       string `json:"error,omitempty"`
	Offset      int64  `json:"offset"`
	Rows        int64  `json:"rows"`
	Quarantined int64  `json:"quarantined"`
	ParseErrors int64  `json:"parse_errors"`
	Rotations   int64  `json:"rotations"`
	FrontierUS  int64  `json:"frontier_us"`
}

// Status is a point-in-time snapshot of the pipeline.
type Status struct {
	Running        bool      `json:"running"`
	StartedWall    time.Time `json:"started"`
	WindowMS       float64   `json:"window_ms"`
	LowWatermarkUS int64     `json:"low_watermark_us"`
	MaxFrontierUS  int64     `json:"max_frontier_us"`
	// LagUS is the event-time spread between the fastest source and the
	// low watermark — how far behind the slowest tier is reporting.
	LagUS       int64   `json:"lag_us"`
	Rows        int64   `json:"rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	Queued      int     `json:"queued"`
	Quarantined int64   `json:"quarantined"`
	Alerts      int     `json:"alerts"`
	// Stalls counts backpressure stall events: a parser finding the
	// record queue full and having to wait for the loader.
	Stalls int64 `json:"backpressure_stalls"`
	// Detector passes whose evidence could not be built, and the latest's why.
	EvidenceErrors int64           `json:"detector_evidence_errors"`
	EvidenceError  string          `json:"detector_evidence_error,omitempty"`
	Fidelity       *FidelityStatus `json:"fidelity,omitempty"`
	Sources        []SourceStatus  `json:"sources"`
}

// FidelityStatus is the degradation subsystem's live state; present in
// Status only when Config.Fidelity enables it.
type FidelityStatus struct {
	Mode string `json:"mode"`
	// State is the current fidelity level: full, aggregate, or shed.
	State fidelity.State `json:"state"`
	// RowsRolledUp counts records folded into per-window aggregates
	// instead of being appended at full fidelity.
	RowsRolledUp int64 `json:"rows_rolled_up"`
	// RowsPromoted counts ring rows retroactively appended around flagged
	// windows.
	RowsPromoted int64 `json:"rows_promoted"`
	// RowsShed counts records dropped with no ring retention (SHED mode).
	RowsShed int64 `json:"rows_shed"`
	// RollupRows is the size of the mscope_rollup aggregate table.
	RollupRows int64 `json:"rollup_rows"`
	// RingRows is the rows currently retained across all source rings.
	RingRows int64 `json:"ring_rows"`
	// RingEvicted counts ring rows overwritten at capacity — lost to
	// promotion forever.
	RingEvicted int64 `json:"ring_evicted"`
	// Transitions counts committed fidelity state changes this session.
	Transitions int64 `json:"transitions"`
}

// Status snapshots the pipeline; safe to call concurrently with the run.
func (p *Pipeline) Status() Status {
	p.mu.Lock()
	running := p.running && !p.stopped
	started := p.started
	alerts, evidenceErrs, evidenceErr := len(p.alerts), p.evidenceErrs, p.evidenceErr
	p.mu.Unlock()
	st := Status{
		Running:        running,
		StartedWall:    started,
		WindowMS:       float64(p.det.windowUS) / 1000,
		Rows:           p.rowsTotal.Load(),
		Queued:         int(p.queued.Load()),
		Alerts:         alerts,
		Stalls:         p.stalls.Load(),
		EvidenceErrors: evidenceErrs,
		EvidenceError:  evidenceErr,
	}
	if f := p.fid; f != nil {
		st.Fidelity = &FidelityStatus{
			Mode:         f.opts.Mode,
			State:        p.fidState(),
			RowsRolledUp: f.rolledUp.Load(),
			RowsPromoted: f.promoted.Load(),
			RowsShed:     f.shedRows.Load(),
			RollupRows:   f.rollupRows.Load(),
			RingRows:     f.ringRows.Load(),
			RingEvicted:  f.ringEvicted.Load(),
			Transitions:  f.transitions.Load(),
		}
	}
	if low, ok := p.wm.Low(); ok && low != finalLow {
		st.LowWatermarkUS = low
	}
	st.MaxFrontierUS = p.wm.MaxFrontier()
	if st.LowWatermarkUS > 0 && st.MaxFrontierUS > st.LowWatermarkUS {
		st.LagUS = st.MaxFrontierUS - st.LowWatermarkUS
	}
	if !started.IsZero() {
		if secs := time.Since(started).Seconds(); secs > 0 {
			st.RowsPerSec = float64(st.Rows) / secs
		}
	}
	for _, s := range p.snapshot() {
		state, err := s.status()
		ss := SourceStatus{
			File:        s.name,
			Table:       s.table,
			State:       state,
			Offset:      s.off.Load(),
			Rows:        s.rows.Load(),
			Quarantined: s.quarantined.Load(),
			ParseErrors: s.parseErrs.Load(),
			Rotations:   s.rotations.Load(),
			FrontierUS:  s.frontierUS.Load(),
		}
		if err != nil {
			ss.Error = err.Error()
		}
		st.Quarantined += ss.Quarantined
		st.Sources = append(st.Sources, ss)
	}
	return st
}

// alertView flattens an Alert for JSON: CauseKind renders as its name.
type alertView struct {
	ID          int       `json:"id"`
	Raised      time.Time `json:"raised"`
	WatermarkUS int64     `json:"watermark_us"`
	StartUS     int64     `json:"window_start_us"`
	EndUS       int64     `json:"window_end_us"`
	PeakUS      float64   `json:"peak_rt_us"`
	Kind        string    `json:"kind"`
	Node        string    `json:"node"`
	Verdict     string    `json:"verdict"`
	Missing     []string  `json:"missing,omitempty"`
	Wait
}

func viewAlert(a Alert) alertView {
	return alertView{
		ID:          a.ID,
		Raised:      a.Raised,
		WatermarkUS: a.WatermarkUS,
		StartUS:     a.Diagnosis.Window.StartMicros,
		EndUS:       a.Diagnosis.Window.EndMicros,
		PeakUS:      a.Diagnosis.Window.Peak,
		Kind:        a.Diagnosis.Kind.String(),
		Node:        a.Diagnosis.Node,
		Verdict:     a.Diagnosis.Verdict,
		Missing:     a.Missing,
		Wait:        a.Wait,
	}
}

// MetricsText renders the pipeline gauges in Prometheus exposition
// format, through the shared promfmt writer every mscope surface uses.
func (p *Pipeline) MetricsText() string {
	st := p.Status()
	var w promfmt.Writer
	g := func(name string, v float64, help string) {
		w.Gauge(promfmt.Prefix+name, help, v)
	}
	g("rows_total", float64(st.Rows), "warehouse rows appended this session")
	g("rows_per_sec", st.RowsPerSec, "mean append throughput")
	g("quarantined_total", float64(st.Quarantined), "malformed regions diverted")
	g("open_alerts", float64(st.Alerts), "millibottleneck alerts raised")
	g("low_watermark_us", float64(st.LowWatermarkUS), "event time all tiers have reported past")
	g("pipeline_lag_us", float64(st.LagUS), "event-time spread between fastest source and watermark")
	g("queued_records", float64(st.Queued), "records buffered between parsers and loader")
	c := func(name string, v float64, help string) {
		w.Counter(promfmt.Prefix+name, help, v)
	}
	c("backpressure_stalls_total", float64(st.Stalls),
		"times a parser found the record channel full and waited for the loader")
	c("detector_evidence_errors_total", float64(st.EvidenceErrors), "detector passes whose evidence could not be built")
	w.Histogram(promfmt.Prefix+"detect_delay_seconds", "event time from a window's end to its alert, online alerts only", &p.delayHist)
	w.Histogram(promfmt.Prefix+"detect_grace_seconds", "grace the detector applied past window end + pad, per online alert", &p.graceHist)
	// Fidelity families are exported unconditionally (zero when the
	// subsystem is off) so dashboards and the conformance test see a
	// stable metric set.
	var fs FidelityStatus
	if st.Fidelity != nil {
		fs = *st.Fidelity
	}
	g("fidelity_state", float64(fs.State), "fidelity level: 0 full, 1 aggregate, 2 shed")
	c("fidelity_transitions_total", float64(fs.Transitions), "committed fidelity state changes")
	c("rows_rolled_up_total", float64(fs.RowsRolledUp), "records folded into per-window aggregates")
	c("rows_promoted_total", float64(fs.RowsPromoted), "ring rows promoted around flagged windows")
	c("rows_shed_total", float64(fs.RowsShed), "records dropped without ring retention")
	c("ring_evicted_total", float64(fs.RingEvicted), "ring rows overwritten at capacity")
	g("ring_rows", float64(fs.RingRows), "rows currently retained in the promotion rings")
	g("rollup_rows", float64(fs.RollupRows), "rows in the mscope_rollup aggregate table")
	// Per-source families. The exposition format requires each family's
	// # HELP/# TYPE header exactly once, before all of its samples — so the
	// samples are grouped by family, not by source.
	family := func(name, typ, help string, value func(SourceStatus) int64) {
		if len(st.Sources) == 0 {
			return
		}
		var f *promfmt.Family
		if typ == "gauge" {
			f = w.GaugeFamily(promfmt.Prefix+name, help)
		} else {
			f = w.CounterFamily(promfmt.Prefix+name, help)
		}
		for _, s := range st.Sources {
			f.Label("file", s.File, float64(value(s)))
		}
	}
	family("source_offset_bytes", "gauge", "bytes of the source consumed by the tailer",
		func(s SourceStatus) int64 { return s.Offset })
	family("source_rows", "gauge", "warehouse rows appended from the source",
		func(s SourceStatus) int64 { return s.Rows })
	family("source_quarantined_total", "counter", "malformed regions diverted from the source",
		func(s SourceStatus) int64 { return s.Quarantined })
	family("source_parse_errors_total", "counter", "unrecoverable parser failures on the source",
		func(s SourceStatus) int64 { return s.ParseErrors })
	return w.String()
}

// Healthz writes the pipeline's readiness: 200 while the engine is
// running (warehouse attached, detector live), 503 once stopped or
// before Start. The body is JSON so callers can see which probe failed.
func (p *Pipeline) Healthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	running := p.running && !p.stopped
	p.mu.Unlock()
	promfmt.WriteHealth(w, map[string]bool{
		"warehouse": p.db != nil,
		"detector":  running,
	}, running && p.db != nil)
}

// Handler serves the live endpoints: /status and /alerts as JSON,
// /metrics as Prometheus text.
func (p *Pipeline) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		promfmt.WriteJSON(w, http.StatusOK, p.Status())
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		alerts := p.Alerts()
		views := make([]alertView, 0, len(alerts))
		for _, a := range alerts {
			views = append(views, viewAlert(a))
		}
		promfmt.WriteJSON(w, http.StatusOK, views)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(p.MetricsText()))
	})
	mux.HandleFunc("/healthz", p.Healthz)
	return mux
}
