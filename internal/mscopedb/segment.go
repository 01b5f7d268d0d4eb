package mscopedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/gt-elba/milliscope/internal/selfobs"
)

// Segment file format (the on-disk unit of the columnar spill store):
//
//	magic "MSEG1\x00"
//	uvarint headerLen, then header:
//	  str tableName, uvarint rows, uvarint ncols
//	  per column: str name, byte type, byte encoding,
//	              byte zoneHas, [8B LE min bits, 8B LE max bits]
//	per column: uvarint blockLen, then the encoded block
//	footer: 4B LE crc32(everything before the footer), magic "1GSM"
//
// Segments are immutable once written: the writer builds the whole file in
// memory, the store persists it via temp-file + rename, and readers verify
// the trailing checksum before decoding. Column blocks use the narrowest
// encoding the type allows — time and int columns store a zig-zag varint
// head value followed by zig-zag varint deltas (timestamps are
// near-sorted, so deltas are tiny), floats store raw IEEE bits, and string
// columns dictionary-encode when the distinct-value count stays under
// segDictMaxCard (the same low-cardinality population the in-memory
// interner deduplicates), falling back to raw length-prefixed strings for
// high-cardinality columns like request IDs.

var (
	segMagic    = []byte("MSEG1\x00")
	segEndMagic = []byte("1GSM")
)

// Column block encodings.
const (
	encDelta  byte = 1 // int64/time: zigzag varint head + zigzag varint deltas
	encFloat  byte = 2 // float64: raw 8-byte LE IEEE bits
	encDict   byte = 3 // string: dictionary + per-row varint index
	encStrRaw byte = 4 // string: per-row length-prefixed bytes
)

// segDictMaxCard bounds the dictionary: a string column with more distinct
// values than this is high-cardinality and stored raw.
const segDictMaxCard = 4096

// zoneMap is one column's min/max summary, coerced to float64 exactly as
// pred.match coerces cells, so pruning decisions and predicate evaluation
// agree. Has is false for string columns and for float columns containing
// NaN (where min/max would lie) or ±Inf (which the manifest's JSON cannot
// hold).
type zoneMap struct {
	Has bool    `json:"has"`
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// encodeSegment serializes rows [0, n) of the given column data under the
// schema and returns the file image plus the per-column zone maps.
func encodeSegment(table string, cols []Column, data []colData, n int) ([]byte, []zoneMap, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("mscopedb: segment of %s with %d rows", table, n)
	}
	zones := make([]zoneMap, len(cols))
	blocks := make([][]byte, len(cols))
	encs := make([]byte, len(cols))
	for i, c := range cols {
		var err error
		switch c.Type {
		case TInt:
			blocks[i] = encodeDelta(data[i].Ints[:n])
			encs[i] = encDelta
			zones[i] = intZone(data[i].Ints[:n])
		case TTime:
			blocks[i] = encodeDelta(data[i].Times[:n])
			encs[i] = encDelta
			zones[i] = intZone(data[i].Times[:n])
		case TFloat:
			blocks[i] = encodeFloats(data[i].Floats[:n])
			encs[i] = encFloat
			zones[i] = floatZone(data[i].Floats[:n])
		case TString:
			blocks[i], encs[i], err = encodeStrings(data[i].Strs[:n])
			if err != nil {
				return nil, nil, fmt.Errorf("mscopedb: segment %s.%s: %w", table, c.Name, err)
			}
		}
	}

	var hdr bytes.Buffer
	putStr(&hdr, table)
	putUvarint(&hdr, uint64(n))
	putUvarint(&hdr, uint64(len(cols)))
	for i, c := range cols {
		putStr(&hdr, c.Name)
		hdr.WriteByte(byte(c.Type))
		hdr.WriteByte(encs[i])
		if zones[i].Has {
			hdr.WriteByte(1)
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(zones[i].Min))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(zones[i].Max))
			hdr.Write(b[:])
		} else {
			hdr.WriteByte(0)
		}
	}

	size := len(segMagic) + hdr.Len() + (1+len(blocks))*binary.MaxVarintLen64 + 4 + len(segEndMagic)
	for _, blk := range blocks {
		size += len(blk)
	}
	out := bytes.NewBuffer(make([]byte, 0, size)) // one allocation, not a doubling chain
	out.Write(segMagic)
	putUvarint(out, uint64(hdr.Len()))
	out.Write(hdr.Bytes())
	for _, blk := range blocks {
		putUvarint(out, uint64(len(blk)))
		out.Write(blk)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out.Bytes()))
	out.Write(crc[:])
	out.Write(segEndMagic)
	return out.Bytes(), zones, nil
}

// segImg is one full segment's image, encoded and not yet written.
type segImg struct {
	img   []byte
	zones []zoneMap
	rows  int
}

// encodeTable is the one encoder of a table's writes: it encodes the first
// rows rows of data as full segments of n rows each, each in a "seal" span,
// and, with tail, the rows past the last as the tail image (nil when none
// are left). DB.Encode runs it on a batch table off the warehouse, and
// spillFull on a table that arrives unencoded.
func encodeTable(table string, cols []Column, data []colData, rows, n int, tail bool) ([]segImg, []byte, error) {
	segs := make([]segImg, 0, rows/n)
	var window []colData
	from := func(at int) []colData { // rows [at, rows) of data
		if at == 0 {
			return data
		}
		if window == nil {
			window = make([]colData, len(data))
		}
		for i := range data {
			window[i] = data[i].slice(cols[i].Type, at, rows)
		}
		return window
	}
	at := 0
	for ; rows-at >= n; at += n {
		obs := selfobs.Begin(selfobs.PipeDB, "seal", "-", table)
		img, zones, err := encodeSegment(table, cols, from(at), n)
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, segImg{img: img, zones: zones, rows: n})
		obs.End(int64(n), 0)
	}
	if !tail || at == rows {
		return segs, nil, nil
	}
	img, _, err := encodeSegment(table, cols, from(at), rows-at)
	return segs, img, err
}

// SegmentError reports a committed segment file that could not be read
// back: missing, torn, or failing its checksum or schema checks.
type SegmentError struct {
	File string
	Err  error
}

func (e *SegmentError) Error() string { return "mscopedb: segment " + e.File + ": " + e.Err.Error() }
func (e *SegmentError) Unwrap() error { return e.Err }

// segImage is a verified segment file whose column blocks are located but
// not decoded: the magic, checksum, table name and per-column schema were
// checked against what the caller expects, and every block holds at least
// one byte per row, so no later allocation is sized by a header field the
// checks did not bound. Readers decode the columns they touch (column)
// and skip the rest by their length prefix.
type segImage struct {
	cols   []Column
	rows   int
	encs   []byte
	blocks [][]byte
	buf    *[]byte // the read buffer the blocks alias, if any
	file   string  // a committed segment file's name, and the store that
	st     *store  // read it and keeps its restart points; nil for others
}

// release hands the image's read buffer back for the next segment. Decoded
// columns are copies, so they outlive it; the image itself does not.
func (s *segImage) release() {
	if s.buf != nil {
		s.st.bufs.put(s.buf)
		s.buf, s.blocks = nil, nil
	}
}

// parseSegment verifies a segment image against the expected table name
// and schema and locates its column blocks.
func parseSegment(img []byte, wantTable string, wantCols []Column) (*segImage, error) {
	tail := len(segEndMagic) + 4
	if len(img) < len(segMagic)+tail || !bytes.Equal(img[:len(segMagic)], segMagic) {
		return nil, fmt.Errorf("bad or truncated magic")
	}
	if !bytes.Equal(img[len(img)-len(segEndMagic):], segEndMagic) {
		return nil, fmt.Errorf("missing end magic (torn write?)")
	}
	body := img[:len(img)-tail]
	wantCRC := binary.LittleEndian.Uint32(img[len(img)-tail : len(img)-len(segEndMagic)])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("checksum mismatch (%08x != %08x)", got, wantCRC)
	}
	r := &segReader{buf: body[len(segMagic):]}
	hdrLen := r.uvarint()
	hdr := &segReader{buf: r.take(int(hdrLen))}
	table := hdr.str()
	rows := int(hdr.uvarint())
	ncols := int(hdr.uvarint())
	if r.err != nil || hdr.err != nil || rows <= 0 {
		return nil, fmt.Errorf("corrupt header")
	}
	if table != wantTable {
		return nil, fmt.Errorf("table %q, want %q", table, wantTable)
	}
	if ncols != len(wantCols) {
		return nil, fmt.Errorf("%d columns, want %d", ncols, len(wantCols))
	}
	s := &segImage{cols: wantCols, rows: rows, encs: make([]byte, ncols), blocks: make([][]byte, ncols)}
	for i := 0; i < ncols; i++ {
		name := hdr.str()
		typ := Type(hdr.byte())
		s.encs[i] = hdr.byte()
		if hdr.byte() == 1 {
			hdr.take(16) // zone min/max; the manifest is authoritative at read time
		}
		if hdr.err != nil {
			return nil, fmt.Errorf("corrupt column header")
		}
		if name != wantCols[i].Name || typ != wantCols[i].Type {
			return nil, fmt.Errorf("column %d is %s:%v, want %s:%v",
				i, name, typ, wantCols[i].Name, wantCols[i].Type)
		}
	}
	for i := range s.blocks {
		s.blocks[i] = r.take(int(r.uvarint()))
		if r.err != nil {
			return nil, fmt.Errorf("truncated column block %d", i)
		}
		// Every encoding spends at least one byte on a row.
		if rows > len(s.blocks[i]) {
			return nil, fmt.Errorf("column %s: %d-byte block cannot hold %d rows", wantCols[i].Name, len(s.blocks[i]), rows)
		}
	}
	return s, nil
}

// column decodes one column: every row when want is nil, else the rows
// want lists in ascending order, the result aligned with want. A subset
// decodes each row from the restart point at or before it and allocates
// for the rows it returns, not for the rows it passes.
//
// A string column of a full decode, of more than a quarter of the rows or
// of a run of at least restartEvery consecutive rows (a scan from a
// cursor) is one copy of the block with its cells as substrings: two
// allocations whatever the row count, and rows that share a dictionary
// entry share its bytes — the on-disk dictionary doubles as the interner.
// Any other subset (a lookup's few rows, adjacent or not) allocates one
// string per cell and pins nothing else.
func (s *segImage) column(ci int, want []int32) (colData, error) {
	n := s.rows
	if want != nil {
		n = len(want)
	}
	d := zeroColumn(s.cols[ci].Type, n)
	if err := s.columnInto(ci, want, &d, 0); err != nil {
		return colData{}, err
	}
	return d, nil
}

// columnInto is column decoding into d's cells from index at on, which
// must have room for them.
func (s *segImage) columnInto(ci int, want []int32, d *colData, at int) error {
	var err error
	n, typ, blk := s.rows, s.cols[ci].Type, s.blocks[ci]
	if want != nil {
		n = len(want)
	}
	switch typ {
	case TFloat:
		err = decodeFloats(blk, s.rows, want, d.Floats[at:at+n])
	case TString:
		out := d.Strs[at : at+n]
		cell := func(k, lo, hi int) { out[k] = string(blk[lo:hi]) }
		if n*4 > s.rows || n >= restartEvery && int(want[n-1]-want[0]) == n-1 {
			whole := string(blk)
			cell = func(k, lo, hi int) { out[k] = whole[lo:hi] }
		}
		err = s.walk(ci, want, nil, nil, cell)
	case TInt:
		err = s.walk(ci, want, nil, d.Ints[at:at+n], nil)
	default:
		err = s.walk(ci, want, nil, d.Times[at:at+n], nil)
	}
	if err != nil {
		return fmt.Errorf("column %s: %w", s.cols[ci].Name, err)
	}
	return nil
}

// restartEvery is the row interval of a block's restart points.
const restartEvery = 128

// restarts are one delta or string block's restart points: for every row
// p*restartEvery, the byte offset of its cell and the running value a
// delta adds to, plus a dictionary block's cell bounds. One full walk of a
// verified image builds them, checking the whole block; a committed file
// is immutable and checksummed on every read, so they hold for each later
// image of it, and a walk takes them only for a block of their length n.
type restarts struct {
	n    int
	off  []int
	val  []int64
	dict [][2]int
}

// restarts returns the restart points of delta or string column ci: for a
// committed segment file those in the store's cache, built and cached by
// the first read that asks; for any other image built afresh.
func (s *segImage) restarts(ci int) (*restarts, error) {
	if s.st != nil {
		if e := s.st.lookups.get(lookupKey{file: s.file, col: ci, restarts: true}); e != nil {
			return &e.rs, nil
		}
	}
	return s.record(ci, nil)
}

// record walks all of delta or string column ci, calling fn with each
// string cell's bounds when given, and builds its restart points on the
// way, cached for a committed segment file: a reader that needs every cell
// anyway (a lookup index's build) leaves them behind for free.
func (s *segImage) record(ci int, fn func(k, lo, hi int)) (*restarts, error) {
	np := (s.rows + restartEvery - 1) / restartEvery
	e := &lookupEntry{rs: restarts{n: len(s.blocks[ci]), off: make([]int, 0, np), val: make([]int64, 0, np)}}
	if err := s.walk(ci, nil, &e.rs, nil, fn); err != nil {
		return nil, err
	}
	if s.st != nil {
		s.st.lookups.put(lookupKey{file: s.file, col: ci, restarts: true}, e)
	}
	return &e.rs, nil
}

// walk steps through delta or string column ci and, for each wanted row,
// stores a delta block's value in vals[k] or calls fn with the bounds of a
// string block's cell, when given: every row when want is nil (k is the
// row), else the rows want lists in ascending order (k indexes want), each
// from the restart point at or before it. A full walk requires the block
// to end at its last row and records its restart points (and dictionary)
// in rec, when given. It allocates nothing per row.
//
// Each pass of the outer loop settles the rows [row, end) to step through
// and the first of them to hand out, emit: a full walk's next restartEvery
// rows, from a restart point, or a wanted row and the rows before it back to
// where the last pass stopped or to its restart point. The inner loops, one
// per encoding, step through them with no other branch than that.
func (s *segImage) walk(ci int, want []int32, rec *restarts, vals []int64, fn func(k, lo, hi int)) error {
	blk, enc := s.blocks[ci], s.encs[ci]
	if s.cols[ci].Type != TString {
		enc = encDelta
	} else if enc != encDict && enc != encStrRaw {
		return fmt.Errorf("unknown string encoding %d", enc)
	}
	var rs *restarts
	if want != nil {
		var err error
		if rs, err = s.restarts(ci); err != nil {
			return err
		}
	}
	dict, off, err := blockStart(blk, enc, rs)
	if err != nil {
		return err
	}
	silent := (enc == encDelta && vals == nil) || (enc != encDelta && fn == nil)
	prev, row, k := int64(0), 0, 0 // row is the next row, at off; k the next slot
	for want == nil && row < s.rows || want != nil && k < len(want) {
		var end, emit int
		if want == nil {
			if rec != nil {
				rec.off, rec.val, rec.dict = append(rec.off, off), append(rec.val, prev), dict
			}
			end, emit = min(row+restartEvery, s.rows), row
			if silent {
				emit = end
			}
		} else {
			r := int(want[k])
			if r < row || r >= s.rows {
				return fmt.Errorf("row %d out of order or past a %d-row block", r, s.rows)
			}
			if p := r / restartEvery; p*restartEvery > row {
				if p >= len(rs.off) {
					return fmt.Errorf("no restart point for row %d", r)
				}
				row, off, prev = p*restartEvery, rs.off[p], rs.val[p]
			}
			end, emit = r+1, r
		}
		switch enc {
		case encDelta:
			for ; row < end; row++ {
				u, w := binary.Uvarint(blk[off:])
				if w <= 0 {
					return fmt.Errorf("corrupt block at row %d", row)
				}
				prev += unzigzag(u)
				off += w
				if row >= emit {
					vals[k+row-emit] = prev
				}
			}
		case encDict:
			for ; row < end; row++ {
				u, w := binary.Uvarint(blk[off:])
				if w <= 0 || u >= uint64(len(dict)) {
					return fmt.Errorf("corrupt block at row %d", row)
				}
				off += w
				if row >= emit {
					fn(k+row-emit, dict[u][0], dict[u][1])
				}
			}
		default:
			for ; row < end; row++ {
				u, w := binary.Uvarint(blk[off:])
				if w <= 0 || u > uint64(len(blk)-off-w) {
					return fmt.Errorf("corrupt block at row %d", row)
				}
				if row >= emit {
					fn(k+row-emit, off+w, off+w+int(u))
				}
				off += w + int(u)
			}
		}
		k += end - emit
	}
	if want == nil && off != len(blk) {
		return fmt.Errorf("%d trailing bytes in block", len(blk)-off)
	}
	return nil
}

// blockStart returns where a block's row 0 begins and a dictionary block's
// cell bounds, from the restart points when they are given.
func blockStart(blk []byte, enc byte, rs *restarts) (dict [][2]int, off int, err error) {
	switch {
	case rs != nil && (rs.n != len(blk) || len(rs.off) == 0):
		return nil, 0, fmt.Errorf("restart points of a %d-byte block for one of %d bytes", rs.n, len(blk))
	case rs != nil:
		return rs.dict, rs.off[0], nil
	case enc != encDict:
		return nil, 0, nil
	}
	nd, off := binary.Uvarint(blk)
	if off <= 0 || nd > segDictMaxCard {
		return nil, 0, fmt.Errorf("corrupt string dictionary")
	}
	dict = make([][2]int, nd)
	for i := range dict {
		u, w := binary.Uvarint(blk[off:])
		if w <= 0 || u > uint64(len(blk)-off-w) {
			return nil, 0, fmt.Errorf("truncated string dictionary")
		}
		dict[i] = [2]int{off + w, off + w + int(u)}
		off += w + int(u)
	}
	return dict, off, nil
}

// --- block encoders ---

func encodeDelta(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*2)
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, v := range vals {
		n := binary.PutUvarint(tmp[:], zigzag(v-prev))
		buf = append(buf, tmp[:n]...)
		prev = v
	}
	return buf
}

func encodeFloats(vals []float64) []byte {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func decodeFloats(blk []byte, rows int, want []int32, out []float64) error {
	if len(blk) != rows*8 {
		return fmt.Errorf("float block is %d bytes for %d rows", len(blk), rows)
	}
	for k := range out {
		r := k
		if want != nil {
			if r = int(want[k]); r >= rows {
				return fmt.Errorf("row %d of a %d-row float block", r, rows)
			}
		}
		out[k] = math.Float64frombits(binary.LittleEndian.Uint64(blk[r*8:]))
	}
	return nil
}

// encodeStrings dictionary-encodes when the column is low-cardinality,
// falling back to raw length-prefixed strings past segDictMaxCard.
func encodeStrings(vals []string) ([]byte, byte, error) {
	dict := make(map[string]int)
	var order []string
	for _, s := range vals {
		if _, ok := dict[s]; !ok {
			if len(dict) >= segDictMaxCard {
				dict = nil
				break
			}
			dict[s] = len(order)
			order = append(order, s)
		}
	}
	var out bytes.Buffer
	if dict == nil {
		for _, s := range vals {
			putStr(&out, s)
		}
		return out.Bytes(), encStrRaw, nil
	}
	putUvarint(&out, uint64(len(order)))
	for _, s := range order {
		putStr(&out, s)
	}
	for _, s := range vals {
		putUvarint(&out, uint64(dict[s]))
	}
	return out.Bytes(), encDict, nil
}

// --- zone maps ---

func intZone(vals []int64) zoneMap {
	z := zoneMap{Has: true, Min: float64(vals[0]), Max: float64(vals[0])}
	for _, v := range vals[1:] {
		f := float64(v)
		if f < z.Min {
			z.Min = f
		}
		if f > z.Max {
			z.Max = f
		}
	}
	return z
}

func floatZone(vals []float64) zoneMap {
	z := zoneMap{Has: true, Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return zoneMap{} // never prune on this column
		}
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	return z
}

// excludes reports whether the zone map proves no row in the segment can
// satisfy the predicate. String predicates and zoneless columns never
// prune. The comparisons mirror pred.match exactly — both sides coerce to
// float64 — so a pruned segment can contain no matching row.
func (z zoneMap) excludes(op Op, num float64) bool {
	if !z.Has {
		return false
	}
	switch op {
	case OpEq:
		return num < z.Min || num > z.Max
	case OpNe:
		return z.Min == z.Max && z.Min == num
	case OpLt:
		return z.Min >= num
	case OpLe:
		return z.Min > num
	case OpGt:
		return z.Max <= num
	case OpGe:
		return z.Max < num
	default:
		return false
	}
}

// --- varint plumbing ---

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putStr(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// segReader is a bounds-checked sequential reader over a segment image;
// the first failure sticks in err and every later read returns zeros.
type segReader struct {
	buf []byte
	err error
}

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *segReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("truncated field (%d of %d bytes)", n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *segReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *segReader) str() string { return string(r.take(int(r.uvarint()))) }
