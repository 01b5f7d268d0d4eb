package mscopedb

import "fmt"

// Segment consolidation. Per-file checkpoints and live seal thresholds
// produce many small segments (the ledger especially: a few rows per
// checkpoint); the compactor merges adjacent runs of small segments into
// larger ones so segment-count — and with it open-file churn and
// per-segment scan overhead — stays bounded on long retentions.
//
// Compaction is crash-safe by construction: the merged segment is written
// (temp-file + rename) before the in-memory swap, the input files are
// only scheduled for deletion, and the next Checkpoint's manifest rename
// commits the new layout and deletes the inputs. A crash at any point
// reopens to the last committed manifest, whose files all still exist —
// at worst the merge is redone.

// compactTestHook, when set from tests, runs after the merged segment
// file is written but before the in-memory swap — the widest window a
// crash can hit. compactReadHook runs between the layout snapshot and the
// first segment read, where a concurrent Widen or commit can land.
var compactTestHook, compactReadHook func(table string)

// CompactOnce merges at most one run of small adjacent segments per
// table and reports whether anything was merged. The new layout becomes
// durable at the next Checkpoint; callers that want it committed
// immediately (the offline `mscope compact`) follow with one.
func (db *DB) CompactOnce() (bool, error) {
	if db.store == nil {
		return false, nil
	}
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	merged := false
	for _, t := range tables {
		did, err := t.compactOnce()
		if err != nil {
			return merged, fmt.Errorf("mscopedb: compact %s: %w", t.name, err)
		}
		merged = merged || did
	}
	return merged, nil
}

// Compact runs CompactOnce until the layout is stable, then checkpoints.
func (db *DB) Compact() error {
	for {
		did, err := db.CompactOnce()
		if err != nil {
			return err
		}
		if !did {
			return db.Checkpoint()
		}
	}
}

// compactOnce merges the table's first eligible run of small segments.
func (t *Table) compactOnce() (bool, error) {
	sp := t.seal
	if sp == nil {
		return false, nil
	}
	st := sp.store
	// The schema is snapshot with the segment list: Widen, Retype and
	// AddColumn change it under sp.mu after unspilling, so these columns
	// are the ones every listed segment was encoded under.
	sp.mu.RLock()
	segs := append([]sealedSeg(nil), sp.segs...)
	cols := append([]Column(nil), t.cols...)
	sp.mu.RUnlock()
	lo, hi, ok := findRun(segs, st.opts)
	if !ok {
		return false, nil
	}
	run := segs[lo : hi+1]
	if compactReadHook != nil {
		compactReadHook(t.name)
	}

	// Merge outside every lock: the inputs are immutable files.
	data := make([]colData, len(cols))
	rows := 0
	for _, ss := range run {
		part, err := st.readSegment(ss.meta, t.name, cols)
		if err != nil {
			sp.mu.RLock()
			gone := !runAt(sp.segs, lo, run)
			sp.mu.RUnlock()
			if gone { // an unspill took the run and a commit deleted its files
				return false, nil
			}
			return false, err
		}
		for ci := range cols {
			appendCol(&data[ci], &part[ci], cols[ci].Type, nil)
		}
		rows += ss.meta.Rows
	}
	img, zones, err := encodeSegment(t.name, cols, data, rows)
	if err != nil {
		return false, err
	}
	file, err := st.writeSegment(t.name, img)
	if err != nil {
		return false, err
	}
	if compactTestHook != nil {
		compactTestHook(t.name)
	}
	mergedSeg := sealedSeg{
		meta:  segMeta{File: file, Rows: rows, Bytes: int64(len(img)), Zones: zones},
		start: run[0].start,
	}

	// Swap and orphan-registration exclude Checkpoint (store.mu), so a
	// concurrent commit either snapshots the old layout with its files
	// intact or the new one — never old names scheduled for deletion.
	st.mu.Lock()
	sp.mu.Lock()
	if !runAt(sp.segs, lo, run) {
		// An unspill (or racing layout change) invalidated the run; the
		// merged file was never referenced, drop it at the next commit.
		sp.mu.Unlock()
		st.orphans = append(st.orphans, file)
		st.mu.Unlock()
		return false, nil
	}
	next := make([]sealedSeg, 0, len(sp.segs)-(hi-lo))
	next = append(next, sp.segs[:lo]...)
	next = append(next, mergedSeg)
	next = append(next, sp.segs[hi+1:]...) // starts unchanged: same total rows
	sp.segs = next
	sp.mu.Unlock()
	files := make([]string, len(run))
	for i, ss := range run {
		files[i] = ss.meta.File
	}
	st.orphans = append(st.orphans, files...)
	st.mu.Unlock()
	sp.dropCache()
	st.lookups.drop(files)
	return true, nil
}

// runAt reports whether segs still holds run at index lo.
func runAt(segs []sealedSeg, lo int, run []sealedSeg) bool {
	return len(segs) >= lo+len(run) && sameSegs(segs[lo:lo+len(run)], run)
}

// findRun locates the first adjacent run of at least CompactMinSegs
// segments, each smaller than CompactTargetRows, stopping once the run
// reaches the target size.
func findRun(segs []sealedSeg, opts StoreOptions) (lo, hi int, ok bool) {
	for i := 0; i < len(segs); {
		if segs[i].meta.Rows >= opts.CompactTargetRows {
			i++
			continue
		}
		j, sum := i, 0
		for j < len(segs) && segs[j].meta.Rows < opts.CompactTargetRows && sum < opts.CompactTargetRows {
			sum += segs[j].meta.Rows
			j++
		}
		if j-i >= opts.CompactMinSegs {
			return i, j - 1, true
		}
		i = j
	}
	return 0, 0, false
}
