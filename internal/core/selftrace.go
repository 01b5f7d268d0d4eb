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
// within a batch, or, in the fleet view, on one node.
type SelfStage struct {
	// Node is the emitting node in the fleet view (its table name minus
	// "_selftrace"); empty in a per-batch breakdown.
	Node     string
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
	// Share is BusyUS over the wall time of the batch (or of the fleet):
	// the fraction of the run during which this stage was active. Stages
	// near 1.0 dominate the critical path.
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
// reconstructed from the warehouse — or, in the fleet view, the
// cross-node merge of every node's spans.
type SelfBatch struct {
	// Table is the warehouse table the batch was read from.
	Table string
	// Batch is the identifier passed to selfobs.Enable.
	Batch string
	// Nodes, in the fleet view, are the contributing node names (table
	// name minus the "_selftrace" suffix), sorted.
	Nodes []string
	// WallUS spans the earliest span start to the latest span end. In the
	// fleet view spans from different machines compare on their rendered
	// wall timestamps, so cross-node shares inherit their clock skew.
	WallUS int64
	// Spans counts span records across all stages.
	Spans int
	// Stages are sorted by BusyUS descending — critical path first.
	Stages []SelfStage
	// Counters are the batch's counter snapshots, sorted by name.
	Counters []SelfCounter

	startUS int64 // earliest span start, for stable batch ordering
}

// selfRow is one record of a *_selftrace table.
type selfRow struct {
	kind, batch, pipeline, stage, name string
	startUS, durUS, items, errs        int64
}

// readSelfTrace calls fn with every record of every *_selftrace table in
// the warehouse, table by table in name order, rows in table order.
func readSelfTrace(db *mscopedb.DB, fn func(table string, r selfRow)) error {
	for _, name := range db.TableNames() {
		if !strings.HasSuffix(name, "_selftrace") {
			continue
		}
		if err := readSelfTable(db, name, fn); err != nil {
			return fmt.Errorf("selftrace: table %s: %w", name, err)
		}
	}
	return nil
}

func readSelfTable(db *mscopedb.DB, name string, fn func(table string, r selfRow)) error {
	tbl, err := db.Table(name)
	if err != nil {
		return err
	}
	res, err := tbl.Select().Rows()
	if err != nil || res.Len() == 0 {
		return err
	}
	ltimes, err := res.TimesMicros("ltime")
	if err != nil {
		return err
	}
	var strs [5][]string
	for i, col := range []string{"kind", "batch", "pipeline", "stage", "span"} {
		if strs[i], err = res.Strings(col); err != nil {
			return err
		}
	}
	var ints [3][]int64
	for i, col := range []string{"dur_us", "items", "errs"} {
		if ints[i], err = res.Ints(col); err != nil {
			return err
		}
	}
	for i := range res.Len() {
		fn(name, selfRow{
			kind: strs[0][i], batch: strs[1][i], pipeline: strs[2][i], stage: strs[3][i], name: strs[4][i],
			startUS: ltimes[i], durUS: ints[0][i], items: ints[1][i], errs: ints[2][i],
		})
	}
	return nil
}

// stageAgg folds span records into stages keyed by (node, pipeline,
// stage) and tracks the wall window the spans cover.
type stageAgg struct {
	stages map[stageKey]*stageSpans
	spans  int
	lo, hi int64 // earliest span start, latest span end
}

type stageKey struct{ node, pipeline, stage string }

// stageSpans is one stage's running aggregate and its span intervals.
type stageSpans struct {
	SelfStage
	intervals [][2]int64
}

func (a *stageAgg) add(node string, r selfRow) {
	end := r.startUS + r.durUS
	if a.spans == 0 || r.startUS < a.lo {
		a.lo = r.startUS
	}
	if a.spans == 0 || end > a.hi {
		a.hi = end
	}
	a.spans++
	k := stageKey{node, r.pipeline, r.stage}
	st := a.stages[k]
	if st == nil {
		if a.stages == nil {
			a.stages = make(map[stageKey]*stageSpans)
		}
		st = &stageSpans{SelfStage: SelfStage{Node: node, Pipeline: r.pipeline, Stage: r.stage}}
		a.stages[k] = st
	}
	st.Spans++
	st.Items += r.items
	st.Errs += r.errs
	st.TotalUS += r.durUS
	st.MaxUS = max(st.MaxUS, r.durUS)
	st.intervals = append(st.intervals, [2]int64{r.startUS, end})
}

// finish returns the wall window and the stages, each with its busy time
// and share of the window, critical path first.
func (a *stageAgg) finish() (wallUS int64, stages []SelfStage) {
	wallUS = a.hi - a.lo
	for _, st := range a.stages {
		st.BusyUS = unionUS(st.intervals)
		if wallUS > 0 {
			st.Share = float64(st.BusyUS) / float64(wallUS)
		}
		stages = append(stages, st.SelfStage)
	}
	sort.Slice(stages, func(i, j int) bool {
		a, b := stages[i], stages[j]
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
	return wallUS, stages
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

// SelfTraceBreakdown aggregates the span records of every *_selftrace
// table in the warehouse into per-batch, per-stage critical-path
// summaries. An empty slice (no error) means the warehouse holds no
// self-telemetry.
func SelfTraceBreakdown(db *mscopedb.DB) ([]SelfBatch, error) {
	type batchAgg struct {
		SelfBatch
		spans stageAgg
	}
	var out []*batchAgg
	byKey := make(map[[2]string]*batchAgg)
	err := readSelfTrace(db, func(table string, r selfRow) {
		b := byKey[[2]string{table, r.batch}]
		if b == nil {
			b = &batchAgg{SelfBatch: SelfBatch{Table: table, Batch: r.batch}}
			byKey[[2]string{table, r.batch}] = b
			out = append(out, b)
		}
		switch r.kind {
		case "counter":
			b.Counters = append(b.Counters, SelfCounter{Pipeline: r.pipeline, Stage: r.stage, Name: r.name, Value: r.items})
		case "span":
			b.spans.add("", r)
		}
	})
	if err != nil {
		return nil, err
	}
	batches := make([]SelfBatch, len(out))
	for i, b := range out {
		sort.Slice(b.Counters, func(i, j int) bool {
			x, y := b.Counters[i], b.Counters[j]
			if x.Pipeline != y.Pipeline {
				return x.Pipeline < y.Pipeline
			}
			if x.Stage != y.Stage {
				return x.Stage < y.Stage
			}
			return x.Name < y.Name
		})
		b.Spans, b.startUS = b.spans.spans, b.spans.lo
		b.WallUS, b.Stages = b.spans.finish()
		batches[i] = b.SelfBatch
	}
	sort.Slice(batches, func(i, j int) bool {
		x, y := &batches[i], &batches[j]
		if x.Table != y.Table {
			return x.Table < y.Table
		}
		if x.startUS != y.startUS {
			return x.startUS < y.startUS
		}
		return x.Batch < y.Batch
	})
	return batches, nil
}

// FleetSelfTraceBreakdown merges the spans of every *_selftrace table in
// the warehouse — the agents' shipped telemetry plus the collector's own
// — into one cross-node critical path, measured against the whole
// fleet's wall window. A nil result (no error) means the warehouse holds
// no self-telemetry.
func FleetSelfTraceBreakdown(db *mscopedb.DB) (*SelfBatch, error) {
	var agg stageAgg
	var nodes []string
	err := readSelfTrace(db, func(table string, r selfRow) {
		if r.kind != "span" {
			return
		}
		node := strings.TrimSuffix(table, "_selftrace")
		if len(nodes) == 0 || nodes[len(nodes)-1] != node {
			nodes = append(nodes, node)
		}
		agg.add(node, r)
	})
	if err != nil || agg.spans == 0 {
		return nil, err
	}
	sort.Strings(nodes)
	ft := &SelfBatch{Nodes: nodes, Spans: agg.spans}
	ft.WallUS, ft.Stages = agg.finish()
	return ft, nil
}

// RenderFleetSelfTrace prints the cross-node critical path.
func RenderFleetSelfTrace(w io.Writer, ft *SelfBatch) error {
	if ft == nil || ft.Spans == 0 {
		_, err := fmt.Fprintln(w, "no self-telemetry in warehouse "+
			"(run agents and collector with self-tracing enabled)")
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d nodes (%s), %d spans over %.3fms wall\n",
		len(ft.Nodes), strings.Join(ft.Nodes, ", "), ft.Spans, float64(ft.WallUS)/1000)
	writeStages(&b, true, ft.Stages)
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderSelfTrace prints the per-batch critical-path tables.
func RenderSelfTrace(w io.Writer, batches []SelfBatch) error {
	if len(batches) == 0 {
		_, err := fmt.Fprintln(w, "no self-telemetry in warehouse "+
			"(ingest a log produced with --self-log)")
		return err
	}
	var b strings.Builder
	for bi, sb := range batches {
		if bi > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "batch %s (%s): %d spans over %.3fms wall\n",
			sb.Batch, sb.Table, sb.Spans, float64(sb.WallUS)/1000)
		writeStages(&b, false, sb.Stages)
		for _, c := range sb.Counters {
			fmt.Fprintf(&b, "  counter %s/%s %s = %d\n", c.Pipeline, c.Stage, c.Name, c.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeStages prints a stage table under its header, nothing when there
// are no stages. The fleet view leads each row with the stage's node.
func writeStages(b *strings.Builder, fleet bool, stages []SelfStage) {
	if len(stages) == 0 {
		return
	}
	lead := func(node, pipeline string) string {
		if fleet {
			return fmt.Sprintf("%-18s %-10s", node, pipeline)
		}
		return fmt.Sprintf("%-9s", pipeline)
	}
	fmt.Fprintf(b, "  %s %-11s %6s %9s %6s %11s %11s %11s %6s\n", lead("node", "pipeline"),
		"stage", "spans", "items", "errs", "total", "max", "busy", "path%")
	for _, st := range stages {
		fmt.Fprintf(b, "  %s %-11s %6d %9d %6d %9.3fms %9.3fms %9.3fms %6.1f\n",
			lead(st.Node, st.Pipeline), st.Stage, st.Spans, st.Items, st.Errs,
			float64(st.TotalUS)/1000, float64(st.MaxUS)/1000, float64(st.BusyUS)/1000, st.Share*100)
	}
}
