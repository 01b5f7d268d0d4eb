package tracegraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// BuildReport summarizes a degraded-mode trace construction: which event
// tables were absent from the warehouse and how many traces came out
// complete versus partial.
type BuildReport struct {
	// MissingTables lists requested event tables absent from the
	// warehouse, in tier-depth order.
	MissingTables []string
	// Total is the number of traces constructed.
	Total int
	// Complete counts traces touching no missing tier.
	Complete int
	// Partial counts traces flagged with missing tiers.
	Partial int
}

// Degraded reports whether any requested table was absent.
func (r *BuildReport) Degraded() bool { return len(r.MissingTables) > 0 }

// Coverage is the fraction of constructed traces that are complete.
func (r *BuildReport) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Complete) / float64(r.Total)
}

// tierPlan is how a request for some event tables maps onto a warehouse
// that may lack a few of them: the tables present, and the full tier
// order with the missing tiers marked, which markMissingTiers reads.
type tierPlan struct {
	present       []string
	missingTables []string
	fullOrder     []string
	missingTier   map[string]bool
}

// ErrNoEventTables is wrapped by every reader here when the warehouse holds
// none of the event tables asked for: there is no request to reconstruct.
var ErrNoEventTables = errors.New("tracegraph: none of the event tables exist")

// planTiers resolves the event tables against the warehouse. At least one
// must exist.
func planTiers(db *mscopedb.DB, eventTables []string) (*tierPlan, error) {
	p := &tierPlan{missingTier: make(map[string]bool)}
	for _, name := range eventTables {
		p.fullOrder = append(p.fullOrder, tierOfTable(name))
		if db.HasTable(name) {
			p.present = append(p.present, name)
		} else {
			p.missingTables = append(p.missingTables, name)
			p.missingTier[tierOfTable(name)] = true
		}
	}
	if len(p.present) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNoEventTables, eventTables)
	}
	return p, nil
}

// BuildPartial joins the given event tables by request ID like Build, but
// tolerates tables missing from the warehouse (a tier whose log never
// arrived or was rejected by the ingest error budget): traces are still
// constructed from the surviving tiers and flagged with the tiers they
// provably lack, instead of the whole reconstruction failing. At least one
// requested table must exist. It reads every row of every table: the
// whole-warehouse reconstruction behind `mscope trace`, and the oracle
// Lookup and Slowest are held to.
func BuildPartial(db *mscopedb.DB, eventTables []string) (map[string]*Trace, *BuildReport, error) {
	plan, err := planTiers(db, eventTables)
	if err != nil {
		return nil, nil, err
	}
	rep := &BuildReport{MissingTables: plan.missingTables}
	sp := selfobs.Begin(selfobs.PipeTrace, "join", "-", "")
	traces, err := Build(db, plan.present)
	if err != nil {
		return nil, nil, err
	}
	sp.End(int64(len(traces)), int64(len(rep.MissingTables)))

	sp = selfobs.Begin(selfobs.PipeTrace, "mark", "-", "")
	for _, tr := range traces {
		markMissingTiers(tr, plan.fullOrder, plan.missingTier)
		rep.Total++
		if tr.Complete() {
			rep.Complete++
		} else {
			rep.Partial++
		}
	}
	sp.End(int64(rep.Total), int64(rep.Partial))
	return traces, rep, nil
}

// Lookup reconstructs the traces of the given request IDs and no others:
// each is span for span, in order and in its missing-tier marks, the trace
// BuildPartial would hold under that ID, but only the rows that carry the
// IDs are read (mscopedb's request-ID lookup), so the cost follows the
// tiers and the IDs, not the warehouse. An ID no table holds is absent
// from the result; the empty ID never matches.
func Lookup(db *mscopedb.DB, eventTables []string, ids ...string) (map[string]*Trace, error) {
	plan, err := planTiers(db, eventTables)
	if err != nil {
		return nil, err
	}
	ids = slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return id == "" })
	traces := make(map[string]*Trace, len(ids))
	if len(ids) == 0 {
		return traces, nil
	}
	for _, name := range plan.present {
		tbl, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		if tbl.Rows() == 0 {
			continue
		}
		sr, err := newSpanReader(tbl, "ds", "dr", "q")
		if err == nil {
			var rows *mscopedb.Chunk
			if rows, err = tbl.Lookup("reqid", ids, sr.cols); err == nil {
				err = sr.spans(rows, traces)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tracegraph: %s: %w", name, err)
		}
	}
	for _, tr := range traces {
		sortSpans(tr)
		markMissingTiers(tr, plan.fullOrder, plan.missingTier)
	}
	return traces, nil
}

// Slowest returns the n requests with the longest response time, slowest
// first and ties by request ID — the head of BuildPartial's traces in that
// order — without building the others: SlowestIDs ranks every request and
// LookupRanked builds the n that rank first.
func Slowest(db *mscopedb.DB, eventTables []string, n int) ([]*Trace, error) {
	ids, err := SlowestIDs(db, eventTables, n)
	if err != nil {
		return nil, err
	}
	return LookupRanked(db, eventTables, ids)
}

// SlowestIDs returns the IDs of the n requests with the longest response
// time, slowest first and ties by request ID, and builds no trace: one
// projected pass over each table's (reqid, ua, ud, q) ranks every request
// by the span that will lead its trace.
func SlowestIDs(db *mscopedb.DB, eventTables []string, n int) ([]string, error) {
	plan, err := planTiers(db, eventTables)
	if err != nil {
		return nil, err
	}
	// lead is the span a trace's ResponseTime reads: of the shallowest
	// tier that saw the request, the visit first by (q, ua, row order).
	type lead struct {
		id    string
		depth int
		Span
	}
	var leads []lead
	var byID map[string]int32
	for depth, name := range plan.present {
		tbl, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		if byID == nil { // nearly every request is in the first table
			byID = make(map[string]int32, tbl.Rows())
			leads = make([]lead, 0, tbl.Rows())
		}
		sr, err := newSpanReader(tbl, "q")
		if err == nil {
			err = tbl.Scan(sr.cols, func(ch *mscopedb.Chunk) error {
				return sr.each(ch, func(id string, sp Span) {
					at, seen := byID[id]
					if !seen {
						byID[id] = int32(len(leads))
						leads = append(leads, lead{id, depth, sp})
					} else if l := &leads[at]; l.depth == depth && (sp.Seq < l.Seq || sp.Seq == l.Seq && sp.UA < l.UA) {
						l.Span = sp
					}
				})
			})
		}
		if err != nil {
			return nil, fmt.Errorf("tracegraph: %s: %w", name, err)
		}
	}
	// Only the n slowest need ordering: find the response time that admits
	// them, then sort what passes it.
	if n < len(leads) {
		rts := make([]int64, len(leads))
		for i, l := range leads {
			rts[i] = l.UD - l.UA
		}
		slices.Sort(rts)
		floor := rts[len(rts)-n]
		leads = slices.DeleteFunc(leads, func(l lead) bool { return l.UD-l.UA < floor })
	}
	slices.SortFunc(leads, func(a, b lead) int {
		if c := cmp.Compare(b.UD-b.UA, a.UD-a.UA); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	leads = leads[:min(n, len(leads))]
	ids := make([]string, len(leads))
	for i, l := range leads {
		ids[i] = l.id
	}
	return ids, nil
}

// LookupRanked reconstructs the traces of ids, in that order, through
// Lookup. Every ID must be in the warehouse: they are what a ranking of it
// returned.
func LookupRanked(db *mscopedb.DB, eventTables []string, ids []string) ([]*Trace, error) {
	traces, err := Lookup(db, eventTables, ids...)
	if err != nil {
		return nil, err
	}
	out := make([]*Trace, len(ids))
	for i, id := range ids {
		if out[i] = traces[id]; out[i] == nil {
			return nil, fmt.Errorf("tracegraph: request %q ranked but not found (warehouse changed under the query?)", id)
		}
	}
	return out, nil
}

// markMissingTiers flags the tiers a trace provably lacks. Two rules,
// both conservative so that requests which legitimately never reach the
// deep tiers (zero-query interactions) stay complete:
//
//  1. a missing tier shallower than the trace's deepest observed tier must
//     have been on the path — requests only reach tier k through tiers
//     1..k-1;
//  2. if the deepest observed span made a downstream call (DS set) and the
//     next tier's table is missing, that callee's span is lost.
func markMissingTiers(tr *Trace, fullOrder []string, missingTier map[string]bool) {
	if len(missingTier) == 0 || len(tr.Spans) == 0 {
		return
	}
	has := make(map[string]bool)
	for _, s := range tr.Spans {
		has[s.Tier] = true
	}
	deepest := -1
	for i, tier := range fullOrder {
		if has[tier] {
			deepest = i
		}
	}
	for i := 0; i < deepest; i++ {
		if missingTier[fullOrder[i]] && !has[fullOrder[i]] {
			tr.MissingTiers = append(tr.MissingTiers, fullOrder[i])
		}
	}
	if deepest >= 0 && deepest+1 < len(fullOrder) && missingTier[fullOrder[deepest+1]] {
		for _, s := range tr.Spans {
			if s.Tier == fullOrder[deepest] && s.DS != 0 {
				tr.MissingTiers = append(tr.MissingTiers, fullOrder[deepest+1])
				break
			}
		}
	}
}
