package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Self-trace analysis: milliScope's own telemetry (internal/selfobs) is
// ingested through the ordinary pipeline into *_selftrace warehouse
// tables, and this file turns those tables back into a per-batch
// critical-path breakdown — the framework applying its own
// fine-grained-timestamp methodology to itself.

// SelfStage aggregates every span one (pipeline, stage) pair emitted
// within a batch.
type SelfStage struct {
	Pipeline string
	Stage    string
	// Spans is the number of span records aggregated.
	Spans int
	// Items and Errs sum the spans' payload counters (records parsed,
	// regions quarantined, ...).
	Items int64
	Errs  int64
	// TotalUS sums span durations; with concurrent workers it exceeds
	// elapsed time. MaxUS is the single longest span.
	TotalUS int64
	MaxUS   int64
	// BusyUS is the union of the stage's span intervals — wall-clock time
	// during which at least one span of this stage was open. Unlike
	// TotalUS it does not double-count concurrent workers.
	BusyUS int64
	// Share is BusyUS over the batch's wall time: the fraction of the run
	// during which this stage was active. Stages near 1.0 dominate the
	// critical path.
	Share float64
}

// SelfCounter is one process-global counter snapshot from the batch.
type SelfCounter struct {
	Pipeline string
	Stage    string
	Name     string
	Value    int64
}

// SelfBatch is one instrumented run (one Enable..Disable window) as
// reconstructed from the warehouse.
type SelfBatch struct {
	// Table is the warehouse table the batch was read from.
	Table string
	// Batch is the identifier passed to selfobs.Enable.
	Batch string
	// WallUS spans the earliest span start to the latest span end.
	WallUS int64
	// Spans counts span records across all stages.
	Spans int
	// Stages are sorted by BusyUS descending — critical path first.
	Stages []SelfStage
	// Counters are the batch's counter snapshots, sorted by name.
	Counters []SelfCounter

	startUS int64 // earliest span start, for stable batch ordering
}

// selfSpanRow is one decoded span record.
type selfSpanRow struct {
	startUS  int64
	durUS    int64
	items    int64
	errs     int64
	pipeline string
	stage    string
}

// SelfTraceBreakdown scans every *_selftrace table in the warehouse and
// aggregates its span records into per-batch, per-stage critical-path
// summaries. An empty slice (no error) means the warehouse holds no
// self-telemetry.
func SelfTraceBreakdown(db *mscopedb.DB) ([]SelfBatch, error) {
	var out []SelfBatch
	for _, name := range db.TableNames() {
		if !strings.HasSuffix(name, "_selftrace") {
			continue
		}
		batches, err := breakdownTable(db, name)
		if err != nil {
			return nil, fmt.Errorf("selftrace: table %s: %w", name, err)
		}
		out = append(out, batches...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		if out[i].startUS != out[j].startUS {
			return out[i].startUS < out[j].startUS
		}
		return out[i].Batch < out[j].Batch
	})
	return out, nil
}

func breakdownTable(db *mscopedb.DB, name string) ([]SelfBatch, error) {
	tbl, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		return nil, err
	}
	if res.Len() == 0 {
		return nil, nil
	}
	ltimes, err := res.TimesMicros("ltime")
	if err != nil {
		return nil, err
	}
	var cols struct {
		kind, batch, pipeline, stage, span []string
		dur, items, errs                   []int64
	}
	for _, c := range []struct {
		dst *[]string
		col string
	}{
		{&cols.kind, "kind"}, {&cols.batch, "batch"},
		{&cols.pipeline, "pipeline"}, {&cols.stage, "stage"}, {&cols.span, "span"},
	} {
		if *c.dst, err = res.Strings(c.col); err != nil {
			return nil, err
		}
	}
	for _, c := range []struct {
		dst *[]int64
		col string
	}{
		{&cols.dur, "dur_us"}, {&cols.items, "items"}, {&cols.errs, "errs"},
	} {
		if *c.dst, err = res.Ints(c.col); err != nil {
			return nil, err
		}
	}

	spans := make(map[string][]selfSpanRow)
	counters := make(map[string][]SelfCounter)
	var order []string // batches in first-appearance order
	seen := make(map[string]bool)
	for i := 0; i < res.Len(); i++ {
		b := cols.batch[i]
		if !seen[b] {
			seen[b] = true
			order = append(order, b)
		}
		switch cols.kind[i] {
		case "counter":
			counters[b] = append(counters[b], SelfCounter{
				Pipeline: cols.pipeline[i],
				Stage:    cols.stage[i],
				Name:     cols.span[i],
				Value:    cols.items[i],
			})
		case "span":
			spans[b] = append(spans[b], selfSpanRow{
				startUS:  ltimes[i],
				durUS:    cols.dur[i],
				items:    cols.items[i],
				errs:     cols.errs[i],
				pipeline: cols.pipeline[i],
				stage:    cols.stage[i],
			})
		}
	}

	var out []SelfBatch
	for _, b := range order {
		sb := buildBatch(name, b, spans[b], counters[b])
		out = append(out, sb)
	}
	return out, nil
}

func buildBatch(table, batch string, rows []selfSpanRow, ctrs []SelfCounter) SelfBatch {
	sb := SelfBatch{Table: table, Batch: batch, Spans: len(rows), Counters: ctrs}
	sort.Slice(sb.Counters, func(i, j int) bool {
		a, b := sb.Counters[i], sb.Counters[j]
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Name < b.Name
	})
	if len(rows) == 0 {
		return sb
	}

	minStart, maxEnd := rows[0].startUS, rows[0].startUS+rows[0].durUS
	type key struct{ pipeline, stage string }
	agg := make(map[key]*SelfStage)
	intervals := make(map[key][][2]int64)
	for _, r := range rows {
		if r.startUS < minStart {
			minStart = r.startUS
		}
		if end := r.startUS + r.durUS; end > maxEnd {
			maxEnd = end
		}
		k := key{r.pipeline, r.stage}
		st := agg[k]
		if st == nil {
			st = &SelfStage{Pipeline: r.pipeline, Stage: r.stage}
			agg[k] = st
		}
		st.Spans++
		st.Items += r.items
		st.Errs += r.errs
		st.TotalUS += r.durUS
		if r.durUS > st.MaxUS {
			st.MaxUS = r.durUS
		}
		intervals[k] = append(intervals[k], [2]int64{r.startUS, r.startUS + r.durUS})
	}
	sb.startUS = minStart
	sb.WallUS = maxEnd - minStart
	for k, st := range agg {
		st.BusyUS = unionUS(intervals[k])
		if sb.WallUS > 0 {
			st.Share = float64(st.BusyUS) / float64(sb.WallUS)
		}
		sb.Stages = append(sb.Stages, *st)
	}
	sort.Slice(sb.Stages, func(i, j int) bool {
		a, b := sb.Stages[i], sb.Stages[j]
		if a.BusyUS != b.BusyUS {
			return a.BusyUS > b.BusyUS
		}
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		return a.Stage < b.Stage
	})
	return sb
}

// unionUS is the total length of the union of the given [start, end]
// intervals — concurrent spans of one stage count once.
func unionUS(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return total
}

// FleetStage is one (node, pipeline, stage) aggregate in the fleet-wide
// self-trace: the per-node tables a distributed deployment ships are
// merged on absolute span time, so Share is measured against the whole
// fleet's wall window — the cross-node critical path.
type FleetStage struct {
	Node     string
	Pipeline string
	Stage    string
	Spans    int
	Items    int64
	Errs     int64
	TotalUS  int64
	MaxUS    int64
	BusyUS   int64
	Share    float64
}

// FleetSelfTrace is the cross-node merge of every *_selftrace table:
// one wall window spanning the earliest span start to the latest span
// end anywhere in the fleet, with per-node stage attribution.
type FleetSelfTrace struct {
	// Nodes are the contributing node names (table name minus the
	// "_selftrace" suffix), sorted.
	Nodes []string
	// WallUS spans the whole fleet's telemetry window. Spans from
	// different machines compare on their rendered wall timestamps, so
	// cross-node shares inherit whatever clock skew the nodes have.
	WallUS int64
	Spans  int
	// Stages are sorted by BusyUS descending — the fleet critical path.
	Stages []FleetStage
}

// FleetSelfTraceBreakdown merges every *_selftrace table in the
// warehouse — the agents' shipped telemetry plus the collector's own —
// into one cross-node critical path. A nil result (no error) means the
// warehouse holds no self-telemetry.
func FleetSelfTraceBreakdown(db *mscopedb.DB) (*FleetSelfTrace, error) {
	type key struct{ node, pipeline, stage string }
	agg := make(map[key]*FleetStage)
	intervals := make(map[key][][2]int64)
	var minStart, maxEnd int64
	total := 0
	var nodes []string
	for _, name := range db.TableNames() {
		if !strings.HasSuffix(name, "_selftrace") {
			continue
		}
		node := strings.TrimSuffix(name, "_selftrace")
		tbl, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		res, err := tbl.Select().Where("kind", mscopedb.OpEq, "span").Rows()
		if err != nil {
			return nil, fmt.Errorf("selftrace: table %s: %w", name, err)
		}
		if res.Len() == 0 {
			continue
		}
		ltimes, err := res.TimesMicros("ltime")
		if err != nil {
			return nil, fmt.Errorf("selftrace: table %s: %w", name, err)
		}
		pipelines, err := res.Strings("pipeline")
		if err != nil {
			return nil, err
		}
		stages, err := res.Strings("stage")
		if err != nil {
			return nil, err
		}
		var durs, items, errs []int64
		for _, c := range []struct {
			dst *[]int64
			col string
		}{
			{&durs, "dur_us"}, {&items, "items"}, {&errs, "errs"},
		} {
			if *c.dst, err = res.Ints(c.col); err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, node)
		for i := 0; i < res.Len(); i++ {
			start, end := ltimes[i], ltimes[i]+durs[i]
			if total == 0 || start < minStart {
				minStart = start
			}
			if total == 0 || end > maxEnd {
				maxEnd = end
			}
			total++
			k := key{node, pipelines[i], stages[i]}
			st := agg[k]
			if st == nil {
				st = &FleetStage{Node: node, Pipeline: pipelines[i], Stage: stages[i]}
				agg[k] = st
			}
			st.Spans++
			st.Items += items[i]
			st.Errs += errs[i]
			st.TotalUS += durs[i]
			if durs[i] > st.MaxUS {
				st.MaxUS = durs[i]
			}
			intervals[k] = append(intervals[k], [2]int64{start, end})
		}
	}
	if total == 0 {
		return nil, nil
	}
	sort.Strings(nodes)
	ft := &FleetSelfTrace{Nodes: nodes, WallUS: maxEnd - minStart, Spans: total}
	for k, st := range agg {
		st.BusyUS = unionUS(intervals[k])
		if ft.WallUS > 0 {
			st.Share = float64(st.BusyUS) / float64(ft.WallUS)
		}
		ft.Stages = append(ft.Stages, *st)
	}
	sort.Slice(ft.Stages, func(i, j int) bool {
		a, b := ft.Stages[i], ft.Stages[j]
		if a.BusyUS != b.BusyUS {
			return a.BusyUS > b.BusyUS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		return a.Stage < b.Stage
	})
	return ft, nil
}

// RenderFleetSelfTrace prints the cross-node critical path.
func RenderFleetSelfTrace(w io.Writer, ft *FleetSelfTrace) error {
	if ft == nil || ft.Spans == 0 {
		_, err := fmt.Fprintln(w, "no self-telemetry in warehouse "+
			"(run agents and collector with self-tracing enabled)")
		return err
	}
	if _, err := fmt.Fprintf(w, "fleet: %d nodes (%s), %d spans over %.3fms wall\n",
		len(ft.Nodes), strings.Join(ft.Nodes, ", "), ft.Spans,
		float64(ft.WallUS)/1000); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-18s %-10s %-11s %6s %9s %6s %11s %11s %11s %6s\n",
		"node", "pipeline", "stage", "spans", "items", "errs",
		"total", "max", "busy", "path%"); err != nil {
		return err
	}
	for _, st := range ft.Stages {
		if _, err := fmt.Fprintf(w, "  %-18s %-10s %-11s %6d %9d %6d %9.3fms %9.3fms %9.3fms %6.1f\n",
			st.Node, st.Pipeline, st.Stage, st.Spans, st.Items, st.Errs,
			float64(st.TotalUS)/1000, float64(st.MaxUS)/1000,
			float64(st.BusyUS)/1000, st.Share*100); err != nil {
			return err
		}
	}
	return nil
}

// RenderSelfTrace prints the per-batch critical-path tables.
func RenderSelfTrace(w io.Writer, batches []SelfBatch) error {
	if len(batches) == 0 {
		_, err := fmt.Fprintln(w, "no self-telemetry in warehouse "+
			"(ingest a log produced with --self-log)")
		return err
	}
	for bi, b := range batches {
		if bi > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "batch %s (%s): %d spans over %.3fms wall\n",
			b.Batch, b.Table, b.Spans, float64(b.WallUS)/1000); err != nil {
			return err
		}
		if len(b.Stages) > 0 {
			if _, err := fmt.Fprintf(w, "  %-9s %-11s %6s %9s %6s %11s %11s %11s %6s\n",
				"pipeline", "stage", "spans", "items", "errs",
				"total", "max", "busy", "path%"); err != nil {
				return err
			}
		}
		for _, st := range b.Stages {
			if _, err := fmt.Fprintf(w, "  %-9s %-11s %6d %9d %6d %9.3fms %9.3fms %9.3fms %6.1f\n",
				st.Pipeline, st.Stage, st.Spans, st.Items, st.Errs,
				float64(st.TotalUS)/1000, float64(st.MaxUS)/1000,
				float64(st.BusyUS)/1000, st.Share*100); err != nil {
				return err
			}
		}
		for _, c := range b.Counters {
			if _, err := fmt.Fprintf(w, "  counter %s/%s %s = %d\n",
				c.Pipeline, c.Stage, c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
