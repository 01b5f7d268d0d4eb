// Package tracegraph reconstructs per-request causal paths from the event
// tables in mScopeDB (paper Section IV-B, Figure 5): records carrying the
// same propagated request ID are joined across tiers, establishing
// happens-before relationships without any assumptions about server
// interactions. The reconstruction also yields each tier's latency
// contribution, the input for diagnosing which server elongates a very
// long request.
package tracegraph

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Span is one tier visit of a request, timestamps in microsecond epochs on
// the tier node's clock. DS/DR are zero when the visit made no downstream
// call.
type Span struct {
	Tier string
	Seq  int
	UA   int64
	UD   int64
	DS   int64
	DR   int64
}

// Local returns the span's tier-local processing time.
func (s Span) Local() time.Duration {
	total := s.UD - s.UA
	if s.DS != 0 && s.DR >= s.DS {
		total -= s.DR - s.DS
	}
	return time.Duration(total) * time.Microsecond
}

// Residence returns the span's total residence time at its tier.
func (s Span) Residence() time.Duration {
	return time.Duration(s.UD-s.UA) * time.Microsecond
}

// Trace is one request's reconstructed execution path.
type Trace struct {
	ReqID string
	// Spans are ordered by tier depth (the order Build received the event
	// tables) and then by query sequence.
	Spans []Span
	// MissingTiers lists tiers this trace provably visited but whose event
	// table was absent during a BuildPartial reconstruction, in depth
	// order. Empty for Build and for complete traces.
	MissingTiers []string
}

// Complete reports whether the trace covers every tier it visited.
func (t *Trace) Complete() bool { return len(t.MissingTiers) == 0 }

// Coverage is the fraction of the trace's visited tiers that were
// observed: observed / (observed + provably missing). 1.0 for complete
// traces.
func (t *Trace) Coverage() float64 {
	seen := make(map[string]bool)
	for _, s := range t.Spans {
		seen[s.Tier] = true
	}
	if len(seen) == 0 {
		return 0
	}
	return float64(len(seen)) / float64(len(seen)+len(t.MissingTiers))
}

// ResponseTime returns the front-tier residence (the client-visible
// response time less wire latency).
func (t *Trace) ResponseTime() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].Residence()
}

// LocalTime sums tier-local (downstream-excluded) time per tier: the
// per-server latency contribution.
func (t *Trace) LocalTime() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.Spans {
		out[s.Tier] += s.Local()
	}
	return out
}

// Validate checks happens-before consistency within the trace, allowing
// for cross-node clock skew up to the tolerance: for adjacent tiers the
// parent's DS must not be (much) later than the child's first UA, and the
// child's last UD not (much) later than the parent's DR.
func (t *Trace) Validate(tierOrder []string, skewTolerance time.Duration) error {
	tol := skewTolerance.Microseconds()
	byTier := make(map[string][]Span)
	for _, s := range t.Spans {
		if s.UA > s.UD {
			return fmt.Errorf("tracegraph: %s: %s span with UA after UD", t.ReqID, s.Tier)
		}
		byTier[s.Tier] = append(byTier[s.Tier], s)
	}
	for i := 0; i+1 < len(tierOrder); i++ {
		parents := byTier[tierOrder[i]]
		children := byTier[tierOrder[i+1]]
		if len(parents) == 0 || len(children) == 0 {
			continue
		}
		if len(parents) == len(children) {
			// Per-query tiers (e.g. C-JDBC → MySQL): the nth child visit
			// nests inside the nth parent visit.
			for j := range parents {
				if err := t.checkNesting(parents[j], []Span{children[j]},
					tierOrder[i], tierOrder[i+1], tol); err != nil {
					return err
				}
			}
			continue
		}
		// Fan-out (e.g. Tomcat → n C-JDBC queries): every child nests in
		// the single parent's downstream window.
		if len(parents) != 1 {
			return fmt.Errorf("tracegraph: %s: %d %s visits cannot parent %d %s visits",
				t.ReqID, len(parents), tierOrder[i], len(children), tierOrder[i+1])
		}
		if err := t.checkNesting(parents[0], children, tierOrder[i], tierOrder[i+1], tol); err != nil {
			return err
		}
	}
	return nil
}

// checkNesting verifies children fall within the parent's DS..DR window,
// within the skew tolerance.
func (t *Trace) checkNesting(p Span, children []Span, pTier, cTier string, tol int64) error {
	if p.DS == 0 {
		return fmt.Errorf("tracegraph: %s: %s has children but no DS", t.ReqID, pTier)
	}
	firstUA, lastUD := children[0].UA, children[0].UD
	for _, c := range children[1:] {
		if c.UA < firstUA {
			firstUA = c.UA
		}
		if c.UD > lastUD {
			lastUD = c.UD
		}
	}
	if p.DS > firstUA+tol {
		return fmt.Errorf("tracegraph: %s: %s DS %d after %s UA %d (tol %d)",
			t.ReqID, pTier, p.DS, cTier, firstUA, tol)
	}
	if lastUD > p.DR+tol {
		return fmt.Errorf("tracegraph: %s: %s UD %d after %s DR %d (tol %d)",
			t.ReqID, cTier, lastUD, pTier, p.DR, tol)
	}
	return nil
}

// TierProfile aggregates one tier's latency contribution across traces.
type TierProfile struct {
	// Visits counts tier visits across the trace set.
	Visits int
	// MeanLocal and P99Local summarize tier-local (downstream-excluded)
	// time per visit.
	MeanLocal time.Duration
	P99Local  time.Duration
	// MeanResidence summarizes total per-visit residence.
	MeanResidence time.Duration
}

// AggregateBreakdown profiles every tier across a trace set: the
// per-server latency contribution the paper derives to find "the server
// causing VLRT requests".
func AggregateBreakdown(traces map[string]*Trace) map[string]TierProfile {
	locals := make(map[string][]time.Duration)
	resSum := make(map[string]time.Duration)
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			locals[sp.Tier] = append(locals[sp.Tier], sp.Local())
			resSum[sp.Tier] += sp.Residence()
		}
	}
	out := make(map[string]TierProfile, len(locals))
	for tier, ls := range locals {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum time.Duration
		for _, d := range ls {
			sum += d
		}
		n := len(ls)
		out[tier] = TierProfile{
			Visits:        n,
			MeanLocal:     sum / time.Duration(n),
			P99Local:      ls[n*99/100],
			MeanResidence: resSum[tier] / time.Duration(n),
		}
	}
	return out
}

// Build joins the given event tables by request ID. Table order defines
// tier depth (front tier first). Records without a request ID (e.g.
// un-instrumented MySQL statements) are skipped.
func Build(db *mscopedb.DB, eventTables []string) (map[string]*Trace, error) {
	traces := make(map[string]*Trace)
	for _, name := range eventTables {
		tbl, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		sr, err := newSpanReader(tbl, "ds", "dr", "q")
		if err == nil {
			err = tbl.Scan(sr.cols, func(ch *mscopedb.Chunk) error { return sr.spans(ch, traces) })
		}
		if err != nil {
			return nil, fmt.Errorf("tracegraph: %s: %w", name, err)
		}
	}
	for _, tr := range traces {
		sortSpans(tr)
	}
	return traces, nil
}

// tierOfTable derives the tier name from an event-table name
// ("apache_event" → "apache").
func tierOfTable(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '_' {
			return name[:i]
		}
	}
	return name
}

// spanReader turns the rows of one event table into spans: the projection
// it needs read (reqid, ua, ud, then whichever of the optional columns the
// caller wants and the table has) and where those sit in it.
type spanReader struct {
	tier      string
	cols      []string
	ds, dr, q int // position in cols, -1 when absent or not wanted
}

// newSpanReader projects reqid, ua, ud and those of ds, dr, q named in
// optional.
func newSpanReader(tbl *mscopedb.Table, optional ...string) (*spanReader, error) {
	if tbl.ColIndex("ua") < 0 || tbl.ColIndex("ud") < 0 {
		return nil, fmt.Errorf("missing ua/ud columns")
	}
	reqCI := tbl.ColIndex("reqid")
	if reqCI < 0 {
		return nil, fmt.Errorf("missing reqid column")
	}
	if typ := tbl.Columns()[reqCI].Type; typ != mscopedb.TString && tbl.Rows() > 0 {
		return nil, fmt.Errorf("reqid column is %v, want string", typ)
	}
	sr := &spanReader{tier: tierOfTable(tbl.Name()), cols: []string{"reqid", "ua", "ud"}}
	project := func(name string) int {
		if tbl.ColIndex(name) < 0 || !slices.Contains(optional, name) {
			return -1
		}
		sr.cols = append(sr.cols, name)
		return len(sr.cols) - 1
	}
	sr.ds, sr.dr, sr.q = project("ds"), project("dr"), project("q")
	return sr, nil
}

// each calls fn with the span of every row of the chunk that carries a
// request ID. Numeric cells may be typed int (pure numeric column) or
// string (a column mixing numbers with the "-" no-downstream marker);
// Chunk.Micros reads both.
func (sr *spanReader) each(ch *mscopedb.Chunk, fn func(id string, sp Span)) error {
	var stamps [6][]int64 // by position in sr.cols; nil where absent
	for _, i := range []int{1, 2, sr.ds, sr.dr, sr.q} {
		if i < 0 {
			continue
		}
		var err error
		if stamps[i], err = ch.Micros(i); err != nil {
			return err
		}
	}
	at := func(i, r int) int64 {
		if i < 0 {
			return 0
		}
		return stamps[i][r]
	}
	for r, id := range ch.Strs(0) {
		if id != "" {
			fn(id, Span{Tier: sr.tier, Seq: int(at(sr.q, r)),
				UA: stamps[1][r], UD: stamps[2][r], DS: at(sr.ds, r), DR: at(sr.dr, r)})
		}
	}
	return nil
}

// spans appends the chunk's spans to their requests' traces, creating a
// trace on first sight of its ID.
func (sr *spanReader) spans(ch *mscopedb.Chunk, traces map[string]*Trace) error {
	return sr.each(ch, func(id string, sp Span) {
		tr := traces[id]
		if tr == nil {
			tr = &Trace{ReqID: id}
			traces[id] = tr
		}
		tr.Spans = append(tr.Spans, sp)
	})
}

// sortSpans keeps the tier insertion order (Build adds front tier first)
// and orders within a tier by Seq then UA.
func sortSpans(tr *Trace) {
	// Spans were appended table by table, so tiers are already grouped in
	// depth order; a stable sort by (existing group, Seq, UA) preserves it.
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		a, b := tr.Spans[i], tr.Spans[j]
		if a.Tier != b.Tier {
			return false // keep group order
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.UA < b.UA
	})
}
