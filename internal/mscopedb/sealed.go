package mscopedb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// sealedPart is the on-disk half of a spill-enabled table: the ordered
// list of immutable segments holding rows [0, rows), while t.data holds
// only the in-memory tail at global rows [rows, t.rows). Row numbers stay
// global across the seal, so every caller that iterates rows by index —
// the query engine, the analysis layer's direct scans, the ledger rebuild
// — is oblivious to where a row physically lives.
//
// mu guards the segment list, the sealed-row boundary, and (with it held
// for writing) the tail slice swap a spill performs — readers resolve
// (boundary, tail cell) under one RLock so a concurrent spill can never
// show them a half-moved row. cmu guards a 2-entry decoded-segment cache
// sized for the sequential full-table scans the analysis code performs;
// random access pays one segment decode per miss.
type sealedPart struct {
	store *store

	mu   sync.RWMutex
	segs []sealedSeg
	rows int // total sealed rows; segs[i].start are prefix sums

	cmu   sync.Mutex
	cache [2]*decodedSeg
}

type sealedSeg struct {
	meta  segMeta
	start int // global row number of the segment's first row
}

type decodedSeg struct {
	file  string
	start int
	rows  int
	data  []colData
}

// Package-wide scan counters, for tests and benchmarks to observe
// zone-map pruning. Monotonic; read both together via ScanStats.
var statSegsScanned, statSegsPruned atomic.Int64

// ScanStats returns the cumulative number of segment images read (one per
// segment a query, scan, lookup or per-cell miss opened) and the number of
// segments a query skipped by zone-map pruning.
func ScanStats() (scanned, pruned int64) {
	return statSegsScanned.Load(), statSegsPruned.Load()
}

// ResetScanStats zeroes the scan counters.
func ResetScanStats() {
	statSegsScanned.Store(0)
	statSegsPruned.Store(0)
}

// SealedRows returns how many of the table's rows live in on-disk
// segments (0 for in-memory tables).
func (t *Table) SealedRows() int {
	if t.seal == nil {
		return 0
	}
	t.seal.mu.RLock()
	defer t.seal.mu.RUnlock()
	return t.seal.rows
}

// Segments returns the number of on-disk segments backing the table.
func (t *Table) Segments() int {
	if t.seal == nil {
		return 0
	}
	t.seal.mu.RLock()
	defer t.seal.mu.RUnlock()
	return len(t.seal.segs)
}

// --- cell resolution ---

// The typed accessors below are the sealed branch of Table.Int and
// friends: boundary check and tail read under one RLock (a spill swaps
// the tail slices and the boundary together under the write lock), sealed
// reads through the decode cache.

func (sp *sealedPart) intAt(t *Table, col, row int) int64 {
	sp.mu.RLock()
	if row >= sp.rows {
		v := t.data[col].Ints[row-sp.rows]
		sp.mu.RUnlock()
		return v
	}
	sp.mu.RUnlock()
	ds, lr := sp.resolve(t, row)
	return ds.data[col].Ints[lr]
}

func (sp *sealedPart) floatAt(t *Table, col, row int) float64 {
	sp.mu.RLock()
	if row >= sp.rows {
		v := t.data[col].Floats[row-sp.rows]
		sp.mu.RUnlock()
		return v
	}
	sp.mu.RUnlock()
	ds, lr := sp.resolve(t, row)
	return ds.data[col].Floats[lr]
}

func (sp *sealedPart) timeAt(t *Table, col, row int) int64 {
	sp.mu.RLock()
	if row >= sp.rows {
		v := t.data[col].Times[row-sp.rows]
		sp.mu.RUnlock()
		return v
	}
	sp.mu.RUnlock()
	ds, lr := sp.resolve(t, row)
	return ds.data[col].Times[lr]
}

func (sp *sealedPart) strAt(t *Table, col, row int) string {
	sp.mu.RLock()
	if row >= sp.rows {
		v := t.data[col].Strs[row-sp.rows]
		sp.mu.RUnlock()
		return v
	}
	sp.mu.RUnlock()
	ds, lr := sp.resolve(t, row)
	return ds.data[col].Strs[lr]
}

// resolve returns the decoded segment holding the global row plus the
// row's local index. Panics on an unreadable committed segment — by the
// commit protocol that is corruption, the moral equivalent of an
// out-of-range index.
func (sp *sealedPart) resolve(t *Table, row int) (*decodedSeg, int) {
	sp.cmu.Lock()
	for i, ds := range sp.cache {
		if ds != nil && row >= ds.start && row < ds.start+ds.rows {
			if i != 0 {
				sp.cache[0], sp.cache[i] = sp.cache[i], sp.cache[0]
			}
			ds := sp.cache[0]
			sp.cmu.Unlock()
			return ds, row - ds.start
		}
	}
	sp.cmu.Unlock()

	ds, err := sp.load(t, row)
	if err != nil {
		// The compactor may have merged the segment away between our
		// lookup and the read; re-resolve against the fresh list once.
		ds, err = sp.load(t, row)
		if err != nil {
			panic(fmt.Sprintf("mscopedb: %s row %d: %v", t.name, row, err))
		}
	}
	sp.cmu.Lock()
	sp.cache[1] = sp.cache[0]
	sp.cache[0] = ds
	sp.cmu.Unlock()
	return ds, row - ds.start
}

func (sp *sealedPart) load(t *Table, row int) (*decodedSeg, error) {
	sp.mu.RLock()
	ss, ok := findSeg(sp.segs, row)
	sp.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no segment holds the row")
	}
	data, err := sp.store.readSegment(ss.meta, t.name, t.cols)
	if err != nil {
		return nil, err
	}
	return &decodedSeg{file: ss.meta.File, start: ss.start, rows: ss.meta.Rows, data: data}, nil
}

// findSeg binary-searches the prefix-summed segment list for the one
// containing the global row.
func findSeg(segs []sealedSeg, row int) (sealedSeg, bool) {
	i := sort.Search(len(segs), func(i int) bool {
		return segs[i].start+segs[i].meta.Rows > row
	})
	if i >= len(segs) || row < segs[i].start {
		return sealedSeg{}, false
	}
	return segs[i], true
}

// dropCache invalidates the decode cache (after compaction or unspill).
func (sp *sealedPart) dropCache() {
	sp.cmu.Lock()
	sp.cache = [2]*decodedSeg{}
	sp.cmu.Unlock()
}

// --- spill ---

// spillFull carves every full segment off the tail. The append path calls
// it after every call, and so do Checkpoint's pre-pass and Install's carve
// of a bulk-built table. Single writer: only the goroutine that owns
// appends to this table may call it (the sequenced appender, the live
// loader, or a batch builder).
//
// The segments are the images DB.Encode left on the table, or else
// encodeTable's, and they are encoded and written outside the seal lock
// (the tail prefix is immutable to everyone but this, the single writer).
// Their segment-list appends, the boundary advance and the tail swap commit
// together under the write lock, so concurrent readers always see a
// consistent mapping. What remains of the tail is copied into fresh slices,
// so the carved rows' backing arrays go: one copy, however many segments
// an installed table held.
func (t *Table) spillFull() error {
	sp := t.seal
	if sp == nil {
		return nil
	}
	sp.mu.RLock()
	held := t.rows - sp.rows
	sp.mu.RUnlock()
	segs := t.segImgs
	if segs == nil {
		if held < sp.store.opts.SealRows {
			return nil
		}
		var err error
		if segs, _, err = encodeTable(t.name, t.cols, t.data, held, sp.store.opts.SealRows, false); err != nil {
			return err
		}
	}
	carved := make([]sealedSeg, len(segs))
	rows := 0
	for i, s := range segs {
		file, err := sp.store.writeSegment(t.name, s.img)
		if err != nil {
			return err
		}
		carved[i].meta = segMeta{File: file, Rows: s.rows, Bytes: int64(len(s.img)), Zones: s.zones}
		ctrSegBytes.Add(carved[i].meta.Bytes)
		rows += s.rows
	}
	rest := make([]colData, len(t.cols))
	for i := range t.data {
		d := &t.data[i]
		left := d.slice(t.cols[i].Type, rows, held)
		rest[i] = colData{intern: d.intern, internOff: d.internOff}
		appendCol(&rest[i], &left, t.cols[i].Type, nil)
	}
	sp.mu.Lock()
	for _, ss := range carved {
		ss.start = sp.rows
		sp.segs = append(sp.segs, ss)
		sp.rows += ss.meta.Rows
	}
	t.data = rest
	t.segImgs = nil
	sp.mu.Unlock()
	return nil
}

// unspill decodes every segment back into the in-memory tail: the escape
// hatch for the rare in-place schema mutations (Widen, AddColumn) that
// immutable segments cannot absorb. Old segment files become orphans,
// deleted after the next checkpoint commits a manifest without them.
func (t *Table) unspill() error {
	sp := t.seal
	if sp == nil {
		return nil
	}
	for {
		sp.mu.RLock()
		segs := append([]sealedSeg(nil), sp.segs...)
		sp.mu.RUnlock()
		if len(segs) == 0 {
			return nil
		}
		parts := make([][]colData, len(segs))
		for i, ss := range segs {
			data, err := sp.store.readSegment(ss.meta, t.name, t.cols)
			if err != nil {
				return fmt.Errorf("mscopedb: unspill %s: %w", t.name, err)
			}
			parts[i] = data
		}
		sp.mu.Lock()
		if !sameSegs(sp.segs, segs) {
			sp.mu.Unlock() // the compactor swapped the list mid-decode; redo
			continue
		}
		merged := make([]colData, len(t.cols))
		for ci := range t.cols {
			for _, part := range parts {
				appendCol(&merged[ci], &part[ci], t.cols[ci].Type, nil)
			}
			appendCol(&merged[ci], &t.data[ci], t.cols[ci].Type, nil)
			merged[ci].intern = t.data[ci].intern
			merged[ci].internOff = t.data[ci].internOff
		}
		files := make([]string, len(segs))
		for i, ss := range segs {
			files[i] = ss.meta.File
		}
		sp.segs = nil
		sp.rows = 0
		t.data = merged
		t.changed()
		sp.mu.Unlock()
		sp.dropCache()
		sp.store.addOrphans(files...)
		return nil
	}
}

func sameSegs(a, b []sealedSeg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].meta.File != b[i].meta.File {
			return false
		}
	}
	return true
}

// appendCol appends src's cells (optionally a row subset) onto dst for
// one column type.
func appendCol(dst, src *colData, typ Type, rows []int32) {
	switch typ {
	case TInt:
		if rows == nil {
			dst.Ints = append(dst.Ints, src.Ints...)
		} else {
			for _, r := range rows {
				dst.Ints = append(dst.Ints, src.Ints[r])
			}
		}
	case TFloat:
		if rows == nil {
			dst.Floats = append(dst.Floats, src.Floats...)
		} else {
			for _, r := range rows {
				dst.Floats = append(dst.Floats, src.Floats[r])
			}
		}
	case TTime:
		if rows == nil {
			dst.Times = append(dst.Times, src.Times...)
		} else {
			for _, r := range rows {
				dst.Times = append(dst.Times, src.Times[r])
			}
		}
	case TString:
		if rows == nil {
			dst.Strs = append(dst.Strs, src.Strs...)
		} else {
			for _, r := range rows {
				dst.Strs = append(dst.Strs, src.Strs[r])
			}
		}
	}
}
