package mscopedb

import (
	"errors"
	"fmt"
	"io/fs"
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
// late: the scan itself decodes only the predicate columns (of the
// segments no zone map excludes) and records which rows matched; any other
// column is gathered from the retained segment images, for the matching
// rows only, the first time a Result method asks for it. The matches, in
// global append order (sealed segments first, tail last — table order, as
// on an in-memory table), are the rows of an ephemeral
// in-memory view table, so everything downstream of Rows() runs on plain
// typed slices.
type spillScan struct {
	view      *Table // schema of the parent, data filled column by column
	parts     []scanPart
	tail      []colData // snapshotted tail slice headers
	tailMatch []int32   // matching tail rows; nil means every row
	have      []bool
}

// scanPart is one surviving segment with at least one match.
type scanPart struct {
	file  string
	img   *segImage
	match []int32 // matching local rows, ascending; nil means every row
	n     int
}

// spilledScan runs the scan phase and returns the view with its predicate
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

func (q *Query) spilledScanOnce() (*spillScan, error) {
	t := q.t
	lay := t.layout()

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
			statSegsPruned.Add(1)
			ctrSegsPruned.Add(1)
			continue
		}
		survivors = append(survivors, ss)
	}

	var predCols []int // each predicate column once: Between puts two on one
	for _, p := range q.preds {
		if !slices.Contains(predCols, p.col) {
			predCols = append(predCols, p.col)
		}
	}

	// Verify + decode predicate columns + filter each survivor.
	parts := make([]scanPart, len(survivors))
	predData := make([][]colData, len(survivors))
	errs := make([]error, len(survivors))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, ss := range survivors {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			img, err := t.seal.store.openSegment(ss.meta, t.name, t.cols)
			if err != nil {
				errs[i] = err
				return
			}
			parts[i] = scanPart{file: ss.meta.File, img: img, n: img.rows}
			if len(q.preds) == 0 {
				return
			}
			data := make([]colData, len(t.cols))
			for _, ci := range predCols {
				if data[ci], err = img.column(ci, nil); err != nil {
					errs[i] = &SegmentError{File: ss.meta.File, Err: err}
					return
				}
			}
			parts[i].match = matchRows(t.cols, data, img.rows, q.preds)
			parts[i].n, predData[i] = len(parts[i].match), data
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mscopedb: scan %s: %w", t.name, err)
		}
	}

	sc := &spillScan{tail: lay.tail, have: make([]bool, len(t.cols))}
	total := lay.rows - lay.sealed
	if len(q.preds) > 0 {
		sc.tailMatch = matchRows(t.cols, lay.tail, total, q.preds)
		total = len(sc.tailMatch)
	}
	for i, p := range parts {
		if total += p.n; p.n > 0 {
			sc.parts = append(sc.parts, p)
		} else {
			p.img.release()
			predData[i] = nil
		}
	}
	// The view shares the (immutable) schema with its parent.
	sc.view = &Table{name: t.name, cols: t.cols, colIdx: t.colIdx, data: make([]colData, len(t.cols)), rows: total}
	// The predicate columns are decoded already: gather their matches now
	// and let the full decodes go.
	for _, ci := range predCols {
		for i, part := range parts {
			if part.n > 0 {
				appendCol(&sc.view.data[ci], &predData[i][ci], t.cols[ci].Type, part.match)
			}
		}
		appendCol(&sc.view.data[ci], &lay.tail[ci], t.cols[ci].Type, sc.tailMatch)
		sc.have[ci] = true
	}
	return sc, nil
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
