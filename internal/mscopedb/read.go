package mscopedb

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/gt-elba/milliscope/internal/selfobs"
)

// The two read primitives under every analysis reader: Scan hands out a
// table's rows chunk by chunk with only the projected columns decoded, and
// Lookup answers an equality probe on a string column from a per-segment
// hash index. Neither takes a lock or consults a cache per cell; a reader
// costs the columns and rows it touches.

// Chunk is a run of rows with the typed slices of the projected columns
// only, in projection order. The slices alias table or decode memory: read
// them, do not keep or modify them past the callback.
type Chunk struct {
	table string
	cols  []Column
	data  []colData
	rows  int
}

// Rows returns the number of rows in the chunk.
func (c *Chunk) Rows() int { return c.rows }

// Ints returns projected column i, which must be an int column.
func (c *Chunk) Ints(i int) []int64 { return c.data[i].Ints }

// Floats returns projected column i, which must be a float column.
func (c *Chunk) Floats(i int) []float64 { return c.data[i].Floats }

// Times returns projected column i, which must be a time column, as
// microsecond epochs.
func (c *Chunk) Times(i int) []int64 { return c.data[i].Times }

// Strs returns projected column i, which must be a string column.
func (c *Chunk) Strs(i int) []string { return c.data[i].Strs }

// Micros returns projected column i as integers: an int column as stored,
// or a string column whose cells are integers or the "-" / "" no-value
// marker, which reads as 0 — schema inference types a timestamp column
// that mixes numbers with the marker as string.
func (c *Chunk) Micros(i int) ([]int64, error) {
	switch c.cols[i].Type {
	case TInt:
		return c.data[i].Ints, nil
	case TString:
		out := make([]int64, c.rows)
		for r, s := range c.data[i].Strs {
			if s == "-" || s == "" {
				continue
			}
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mscopedb: cell %q in %s.%s: %w", s, c.table, c.cols[i].Name, err)
			}
			out[r] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("mscopedb: %s.%s: unsupported type %v for micros", c.table, c.cols[i].Name, c.cols[i].Type)
	}
}

// newChunk resolves a projection and starts an empty chunk over it.
func (t *Table) newChunk(cols []string) (*Chunk, []int, error) {
	c := &Chunk{table: t.name, cols: make([]Column, len(cols)), data: make([]colData, len(cols))}
	proj := make([]int, len(cols))
	for i, name := range cols {
		if proj[i] = t.ColIndex(name); proj[i] < 0 {
			return nil, nil, fmt.Errorf("mscopedb: %s: no column %q", t.name, name)
		}
		c.cols[i] = t.cols[proj[i]]
	}
	return c, proj, nil
}

// gather appends the listed rows of whole column data.
func (c *Chunk) gather(proj []int, data []colData, rows []int32) {
	for i, ci := range proj {
		appendCol(&c.data[i], &data[ci], c.cols[i].Type, rows)
	}
	c.rows += len(rows)
}

// layout is one consistent snapshot of a table's physical layout: segment
// list, seal boundary and tail slice headers move together under the seal
// lock. A table no store backs is all tail.
type layout struct {
	segs   []sealedSeg
	sealed int
	tail   []colData
	rows   int
}

func (t *Table) layout() layout {
	sp := t.seal
	if sp == nil {
		return layout{tail: t.data, rows: t.rows}
	}
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return layout{
		segs:   append([]sealedSeg(nil), sp.segs...),
		sealed: sp.rows,
		tail:   append([]colData(nil), t.data...),
		rows:   t.rows,
	}
}

// Scan calls fn with the table's rows in order, chunk by chunk — one chunk
// per sealed segment, then one for the in-memory tail, all from one
// snapshot of the layout — decoding only the named columns; the blocks of
// the others are skipped by their length prefix. An unreadable segment is
// a SegmentError; an error from fn stops the scan and is returned as is.
func (t *Table) Scan(cols []string, fn func(*Chunk) error) error {
	c, proj, err := t.newChunk(cols)
	if err != nil {
		return err
	}
	obs := selfobs.Begin(selfobs.PipeDB, "scan", "chunks", t.name)
	delivered := 0
	defer func() { obs.End(int64(delivered), 0) }()
	emit := func(data []colData, lo, hi int) error {
		if hi <= lo {
			return nil
		}
		for i, ci := range proj {
			c.data[i] = data[ci].slice(c.cols[i].Type, lo, hi)
		}
		c.rows = hi - lo
		delivered += c.rows
		return fn(c)
	}
	lay := t.layout()
	segs, refreshed := lay.segs, false
	decoded := make([]colData, len(t.cols))
	for next := 0; next < lay.sealed; {
		ss, ok := findSeg(segs, next)
		if !ok {
			return fmt.Errorf("mscopedb: scan %s: no segment holds row %d (schema change during the scan?)", t.name, next)
		}
		img, err := t.seal.store.openSegment(ss.meta, t.name, t.cols)
		if err != nil {
			// The compactor may have merged the file away and a checkpoint
			// deleted it since the snapshot: take the fresh list once and
			// carry on from the same row.
			if !refreshed && errors.Is(err, fs.ErrNotExist) {
				segs, refreshed = t.layout().segs, true
				continue
			}
			return err
		}
		refreshed = false
		for _, ci := range proj {
			if decoded[ci], err = img.column(ci, nil); err != nil {
				return &SegmentError{File: ss.meta.File, Err: err}
			}
		}
		img.release()
		end := min(ss.start+ss.meta.Rows, lay.sealed)
		if err := emit(decoded, next-ss.start, end-ss.start); err != nil {
			return err
		}
		next = end
	}
	return emit(lay.tail, 0, lay.rows-lay.sealed)
}

// slice is rows [lo, hi) of one column.
func (d *colData) slice(typ Type, lo, hi int) colData {
	switch typ {
	case TInt:
		return colData{Ints: d.Ints[lo:hi]}
	case TFloat:
		return colData{Floats: d.Floats[lo:hi]}
	case TTime:
		return colData{Times: d.Times[lo:hi]}
	default:
		return colData{Strs: d.Strs[lo:hi]}
	}
}

// --- equality lookup ---

// lookupIndexCap bounds the bytes of lookup indexes a store retains.
const lookupIndexCap = 64 << 20

// lookupHash is the index's hash (FNV-1a); candidates it yields are always
// verified against the stored string, so a collision costs a comparison,
// never a wrong row.
func lookupHash[T ~string | ~[]byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// lookupKey names one string column of one immutable segment file.
type lookupKey struct {
	file string
	col  int
}

// lookupCache holds the lookup indexes of a store, the least recently used
// dropped once their bytes pass the cap. An index is hash<<32 | local row
// for every row of a segment column, sorted, so the rows of one hash are a
// contiguous ascending run. Indexes are built on first use and never
// written to disk (6 B a row would be +4.5% on event rows); a segment file
// is immutable and uniquely named, so an entry stays valid until its file
// is orphaned.
type lookupCache struct {
	mu        sync.Mutex
	cap       int64 // 0 means lookupIndexCap
	bytes     int64
	evictions int64
	clock     int64 // ticks on every use
	byKey     map[lookupKey]*lookupEntry
}

type lookupEntry struct {
	keys []uint64
	used int64
}

func (c *lookupCache) get(k lookupKey) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[k]
	if e == nil {
		return nil
	}
	c.clock++
	e.used = c.clock
	return e.keys
}

func (c *lookupCache) put(k lookupKey, keys []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[k] != nil {
		return // a concurrent reader built the same index first
	}
	if c.byKey == nil {
		c.byKey = make(map[lookupKey]*lookupEntry)
	}
	c.clock++
	c.byKey[k] = &lookupEntry{keys: keys, used: c.clock}
	c.bytes += int64(len(keys)) * 8
	limit := c.cap
	if limit == 0 {
		limit = lookupIndexCap
	}
	for c.bytes > limit { // rare: a linear search for the oldest will do
		oldest, at := k, c.clock+1
		for k, e := range c.byKey {
			if e.used < at {
				oldest, at = k, e.used
			}
		}
		c.remove(oldest)
		c.evictions++
	}
}

func (c *lookupCache) remove(k lookupKey) {
	c.bytes -= int64(len(c.byKey[k].keys)) * 8
	delete(c.byKey, k)
}

// drop forgets the indexes of orphaned segment files.
func (c *lookupCache) drop(files []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.byKey {
		if slices.Contains(files, k.file) {
			c.remove(k)
		}
	}
}

// IndexStats returns the bytes of lookup indexes the warehouse's store
// holds and how many it has evicted to stay under its cap.
func (db *DB) IndexStats() (bytes, evictions int64) {
	if db.store == nil {
		return 0, 0
	}
	c := &db.store.lookups
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.evictions
}

// matchStrs lists the rows of a string column whose cell is in the set.
func matchStrs(strs []string, set map[string]bool) []int32 {
	out := make([]int32, 0) // never nil: a nil row list means every row
	for r, v := range strs {
		if set[v] {
			out = append(out, int32(r))
		}
	}
	return out
}

// Lookup returns the rows whose cell in the string column col equals one
// of vals, in table order, with the named columns gathered. Sealed
// segments answer from a hash index of the column, built from a projected
// decode the first time a segment is asked and retained with it; only
// segments holding a candidate are read, candidates are verified against
// the stored bytes, and the gather walks each block to the selected rows
// only. The unsealed tail is compared directly.
func (t *Table) Lookup(col string, vals []string, cols []string) (*Chunk, error) {
	ki := t.ColIndex(col)
	if ki < 0 || t.cols[ki].Type != TString {
		return nil, fmt.Errorf("mscopedb: %s: lookup needs a string column, not %q", t.name, col)
	}
	obs := selfobs.Begin(selfobs.PipeDB, "lookup", "-", t.name)
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	out, err := t.lookupOnce(ki, vals, set, cols)
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		// A segment compacted away under the snapshot: once more, against
		// the fresh list.
		out, err = t.lookupOnce(ki, vals, set, cols)
	}
	if err != nil {
		return nil, err
	}
	obs.End(int64(out.rows), 0)
	return out, nil
}

// lookupOnce is Lookup over one snapshot of the table's layout. Each
// segment index it has to build is a mscopedb/index span of its own, so
// the self-trace tells a cold lookup from a warm one.
func (t *Table) lookupOnce(ki int, vals []string, set map[string]bool, cols []string) (*Chunk, error) {
	out, proj, err := t.newChunk(cols)
	if err != nil {
		return nil, err
	}
	lay := t.layout()
	var cand []int32
	for _, ss := range lay.segs {
		st := t.seal.store
		var img *segImage
		key := lookupKey{file: ss.meta.File, col: ki}
		keys := st.lookups.get(key)
		if keys == nil {
			obs := selfobs.Begin(selfobs.PipeDB, "index", "-", t.name)
			if img, err = st.openSegment(ss.meta, t.name, t.cols); err != nil {
				return nil, err
			}
			blk := img.blocks[ki]
			keys = make([]uint64, img.rows)
			err = walkStrs(blk, img.encs[ki], img.rows, nil, func(k, lo, hi int) {
				keys[k] = uint64(lookupHash(blk[lo:hi]))<<32 | uint64(k)
			})
			if err != nil {
				return nil, &SegmentError{File: ss.meta.File, Err: err}
			}
			slices.Sort(keys)
			st.lookups.put(key, keys)
			obs.End(int64(img.rows), 0)
		}
		cand = cand[:0]
		for _, v := range vals {
			h := lookupHash(v)
			i := sort.Search(len(keys), func(i int) bool { return keys[i] >= uint64(h)<<32 })
			for ; i < len(keys) && uint32(keys[i]>>32) == h; i++ {
				cand = append(cand, int32(uint32(keys[i])))
			}
		}
		if len(cand) > 0 && img == nil {
			if img, err = st.openSegment(ss.meta, t.name, t.cols); err != nil {
				return nil, err
			}
		}
		if len(cand) > 0 {
			slices.Sort(cand)
			cand = slices.Compact(cand)
			blk, hit := img.blocks[ki], cand[:0]
			err = walkStrs(blk, img.encs[ki], img.rows, cand, func(k, lo, hi int) {
				if set[string(blk[lo:hi])] { // a map probe by converted bytes does not allocate
					hit = append(hit, cand[k])
				}
			})
			for i := 0; err == nil && len(hit) > 0 && i < len(proj); i++ {
				var d colData
				if d, err = img.column(proj[i], hit); err == nil {
					appendCol(&out.data[i], &d, out.cols[i].Type, nil)
				}
			}
			if err != nil {
				return nil, &SegmentError{File: ss.meta.File, Err: err}
			}
			out.rows += len(hit)
		}
		if img != nil {
			img.release()
		}
	}
	out.gather(proj, lay.tail, matchStrs(lay.tail[ki].Strs[:lay.rows-lay.sealed], set))
	return out, nil
}
