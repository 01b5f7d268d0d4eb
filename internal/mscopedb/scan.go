package mscopedb

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/gt-elba/milliscope/internal/selfobs"
)

// Self-telemetry counters of the read path: segment images opened and
// segments a zone map let a query skip.
var (
	ctrSegsDecoded = selfobs.NewCounter(selfobs.PipeDB, "scan", "segments_decoded")
	ctrSegsPruned  = selfobs.NewCounter(selfobs.PipeDB, "scan", "segments_pruned")
)

// spillScan is a predicate scan over a spill-backed table, materialized
// late: the scan itself decodes only the predicate and ORDER BY columns
// (of the segments no zone map excludes) and records which rows matched;
// any other column is gathered from the retained segment images, for the
// kept rows only, the first time a Result method asks for it. The kept
// rows, in table order (sealed segments first, tail last, as on an
// in-memory table), are the rows of an ephemeral in-memory view table, so
// everything downstream of Rows() runs on plain typed slices; idx lists
// them in result order.
type spillScan struct {
	view      *Table // schema of the parent, data filled column by column
	idx       []int
	parts     []scanPart
	tail      []colData // snapshotted tail slice headers
	tailMatch []int32   // kept tail rows; nil means every row
	have      []bool
}

// scanPart is one opened segment with at least one kept row.
type scanPart struct {
	file  string
	img   *segImage
	start int       // table position of the segment's first row
	data  []colData // the scanned columns, decoded whole
	match []int32   // kept local rows, ascending; nil means every row
}

func (p *scanPart) kept() int {
	if p.match == nil {
		return p.img.rows
	}
	return len(p.match)
}

// spilledScan runs the scan phase and returns the view with its scanned
// columns filled. Per-segment work is pruned then parallelized: a segment
// whose zone map proves a predicate unsatisfiable is never read, and the
// survivors are verified and filtered concurrently (at most GOMAXPROCS at
// a time), the way the ingest side fans out per file.
func (q *Query) spilledScan() (*spillScan, error) {
	obs := selfobs.Begin(selfobs.PipeDB, "scan", "query", q.t.name)
	sc, err := q.spilledScanOnce()
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		// The compactor merged segment files out from under the snapshot;
		// one retry re-snapshots the fresh list.
		sc, err = q.spilledScanOnce()
	}
	if err != nil {
		return nil, err
	}
	obs.End(int64(sc.view.rows), 0)
	return sc, nil
}

// spilledScanOnce is one scan loop for every query. The in-memory tail is
// filtered first; the surviving segments are then opened in rounds, in
// visit order, and a limited query's ranker decides between rounds whether
// the next segment can still hold a kept row. An unlimited query takes
// every survivor in one round. With ORDER BY a zone-mapped column the visit
// order is best bound first (max for DESC, min for ASC; zoneless segments
// before all), otherwise table order.
func (q *Query) spilledScanOnce() (*spillScan, error) {
	t := q.t
	lay := t.layout()
	rk := q.ranker()

	// Zone-map pruning: drop every segment some predicate proves empty.
	var survivors []sealedSeg
	for _, ss := range lay.segs {
		excluded := false
		for _, p := range q.preds {
			if !p.isStr && ss.meta.Zones[p.col].excludes(p.op, p.num) {
				excluded = true
				break
			}
		}
		if excluded {
			pruned(1)
			continue
		}
		survivors = append(survivors, ss)
	}
	keyed := q.sort >= 0 && t.cols[q.sort].Type != TString
	if keyed {
		bound := func(ss sealedSeg) float64 { // ascending is best first
			switch z := ss.meta.Zones[q.sort]; {
			case !z.Has:
				return math.Inf(-1)
			case q.asc:
				return z.Min
			default:
				return -z.Max
			}
		}
		slices.SortStableFunc(survivors, func(a, b sealedSeg) int { return cmp.Compare(bound(a), bound(b)) })
	}

	var scanCols []int // each column once: Between puts two predicates on one
	for _, p := range q.preds {
		if !slices.Contains(scanCols, p.col) {
			scanCols = append(scanCols, p.col)
		}
	}
	if q.sort >= 0 && !slices.Contains(scanCols, q.sort) {
		scanCols = append(scanCols, q.sort)
	}
	filter := len(q.preds) > 0 || rk != nil // else every row is kept

	sc := &spillScan{tail: lay.tail, have: make([]bool, len(t.cols))}
	tailRows := lay.rows - lay.sealed
	if filter {
		sc.tailMatch = matchRows(t.cols, lay.tail, tailRows, q.preds)
	}
	// The tail goes first when it can raise the bar the stop rule reads;
	// in table order it is last, and offered last.
	if keyed {
		rk.offer(lay.tail, sc.tailMatch, lay.sealed)
	}

	slots := runtime.GOMAXPROCS(0)
	next := 0
	for next < len(survivors) {
		batch := survivors[next:]
		if rk != nil {
			batch = round(rk, batch, slots)
		}
		if len(batch) == 0 {
			break
		}
		next += len(batch)
		parts, err := t.openParts(batch, scanCols, q.preds, filter, slots)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			if p.kept() == 0 {
				p.img.release()
				continue
			}
			if rk != nil {
				rk.offer(p.data, p.match, p.start)
			}
			sc.parts = append(sc.parts, p)
		}
	}
	pruned(len(survivors) - next)
	if rk != nil && !keyed {
		rk.offer(lay.tail, sc.tailMatch, lay.sealed)
	}

	if rk != nil {
		sc.keep(rk.positions(), lay.sealed)
	}
	total := tailRows
	if sc.tailMatch != nil {
		total = len(sc.tailMatch)
	}
	for _, p := range sc.parts {
		total += p.kept()
	}
	// The view shares the (immutable) schema with its parent.
	sc.view = &Table{name: t.name, cols: t.cols, colIdx: t.colIdx, data: make([]colData, len(t.cols)), rows: total}
	// The scanned columns are decoded already: gather their kept rows now
	// and let the full decodes go.
	for _, ci := range scanCols {
		for _, p := range sc.parts {
			appendCol(&sc.view.data[ci], &p.data[ci], t.cols[ci].Type, p.match)
		}
		appendCol(&sc.view.data[ci], &lay.tail[ci], t.cols[ci].Type, sc.tailMatch)
		sc.have[ci] = true
	}
	for i := range sc.parts {
		sc.parts[i].data = nil
	}
	if sc.idx == nil {
		sc.idx = make([]int, total)
		for i := range sc.idx {
			sc.idx[i] = i
		}
	}
	return sc, nil
}

// round returns the segments a limited scan opens next, in visit order: at
// most slots of them, no more than it takes to hold the rows the ranker
// needs, and none it has put beyond reach.
func round(rk *topK, segs []sealedSeg, slots int) []sealedSeg {
	need := rk.need()
	if need < 0 {
		return segs
	}
	rows := 0
	for i, ss := range segs {
		if i == slots || (i > 0 && rows >= need) || rk.beyond(ss) {
			return segs[:i]
		}
		rows += ss.meta.Rows
	}
	return segs
}

// openParts opens, verifies and filters one round of segments, at most
// slots at a time, and returns them in the round's order.
func (t *Table) openParts(segs []sealedSeg, scanCols []int, preds []pred, filter bool, slots int) ([]scanPart, error) {
	parts := make([]scanPart, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, slots)
	for i, ss := range segs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			img, err := t.seal.store.openSegment(ss.meta, t.name, t.cols)
			if err != nil {
				errs[i] = err
				return
			}
			parts[i] = scanPart{file: ss.meta.File, img: img, start: ss.start}
			if !filter {
				return
			}
			data := make([]colData, len(t.cols))
			for _, ci := range scanCols {
				if data[ci], err = img.column(ci, nil); err != nil {
					errs[i] = &SegmentError{File: ss.meta.File, Err: err}
					return
				}
			}
			parts[i].data = data
			parts[i].match = matchRows(t.cols, data, img.rows, preds)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mscopedb: scan %s: %w", t.name, err)
		}
	}
	return parts, nil
}

// keep narrows the scan to the ranker's selection: each part's rows and the
// tail's become the selected ones, a part holding none hands its image
// back, and idx maps the result order onto the view.
func (sc *spillScan) keep(order []int, sealed int) {
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	slices.SortFunc(sc.parts, func(a, b scanPart) int { return cmp.Compare(a.start, b.start) })
	i, kept := 0, sc.parts[:0]
	for _, p := range sc.parts {
		end := p.start + p.img.rows
		p.match = nil
		for ; i < len(sorted) && sorted[i] < end; i++ {
			p.match = append(p.match, int32(sorted[i]-p.start))
		}
		if p.match == nil {
			p.img.release()
			continue
		}
		kept = append(kept, p)
	}
	clear(sc.parts[len(kept):])
	sc.parts = kept
	sc.tailMatch = make([]int32, 0, len(sorted)-i)
	for _, pos := range sorted[i:] {
		sc.tailMatch = append(sc.tailMatch, int32(pos-sealed))
	}
	sc.idx = make([]int, len(order))
	for j, pos := range order {
		sc.idx[j], _ = slices.BinarySearch(sorted, pos)
	}
}

// pruned counts segments a query skipped: by zone map, or by the stop rule
// of a limited scan.
func pruned(n int) {
	statSegsPruned.Add(int64(n))
	ctrSegsPruned.Add(int64(n))
}

// fill gathers column ci of the view from the segment images and the tail.
func (sc *spillScan) fill(ci int) error {
	if sc.have[ci] {
		return nil
	}
	typ := sc.view.cols[ci].Type
	dst := &sc.view.data[ci]
	for _, p := range sc.parts {
		d, err := p.img.column(ci, p.match)
		if err != nil {
			return &SegmentError{File: p.file, Err: err}
		}
		appendCol(dst, &d, typ, nil)
	}
	appendCol(dst, &sc.tail[ci], typ, sc.tailMatch)
	sc.have[ci] = true
	return nil
}

// matchRows applies the predicate list to raw column data and returns the
// matching row numbers.
func matchRows(cols []Column, data []colData, nrows int, preds []pred) []int32 {
	out := make([]int32, 0) // never nil: a nil row list means every row
	for r := 0; r < nrows; r++ {
		if matchRow(cols, data, r, preds) {
			out = append(out, int32(r))
		}
	}
	return out
}

// matchRow applies the predicate list to one row; numeric cells coerce to
// float64 (times to their microsecond epoch), as the zone maps do.
func matchRow(cols []Column, data []colData, row int, preds []pred) bool {
	for _, p := range preds {
		d := &data[p.col]
		if p.isStr {
			if cols[p.col].Type != TString || (d.Strs[row] == p.str) != (p.op == OpEq) {
				return false
			}
			continue
		}
		var v float64
		switch cols[p.col].Type {
		case TInt:
			v = float64(d.Ints[row])
		case TFloat:
			v = d.Floats[row]
		case TTime:
			v = float64(d.Times[row])
		default:
			return false
		}
		var ok bool
		switch p.op {
		case OpEq:
			ok = v == p.num
		case OpNe:
			ok = v != p.num
		case OpLt:
			ok = v < p.num
		case OpLe:
			ok = v <= p.num
		case OpGt:
			ok = v > p.num
		case OpGe:
			ok = v >= p.num
		}
		if !ok {
			return false
		}
	}
	return true
}
