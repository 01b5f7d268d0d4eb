package mscopedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
	buf    *[]byte // the pooled read buffer the blocks alias, if any
}

// release hands the image's read buffer back for the next segment. Decoded
// columns are copies, so they outlive it; the image itself does not.
func (s *segImage) release() {
	if s.buf != nil {
		segBufs.Put(s.buf)
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
// walks the block only as far as its last row and allocates for the rows
// it returns, not for the rows it passes.
func (s *segImage) column(ci int, want []int32) (colData, error) {
	var d colData
	var err error
	switch blk := s.blocks[ci]; s.cols[ci].Type {
	case TInt:
		d.Ints, err = decodeDelta(blk, s.rows, want)
	case TTime:
		d.Times, err = decodeDelta(blk, s.rows, want)
	case TFloat:
		d.Floats, err = decodeFloats(blk, s.rows, want)
	case TString:
		d.Strs, err = decodeStrings(blk, s.encs[ci], s.rows, want)
	}
	if err != nil {
		return d, fmt.Errorf("column %s: %w", s.cols[ci].Name, err)
	}
	return d, nil
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

// decodeDelta decodes a delta block: every row when want is nil, else
// only the rows want lists (ascending), stopping at the last of them.
func decodeDelta(blk []byte, rows int, want []int32) ([]int64, error) {
	n := rows
	if want != nil {
		n = len(want)
	}
	out := make([]int64, n)
	prev := int64(0)
	k := 0
	for i := 0; k < n; i++ {
		u, w := binary.Uvarint(blk)
		if w <= 0 || i >= rows {
			return nil, fmt.Errorf("truncated delta block at row %d", i)
		}
		blk = blk[w:]
		prev += unzigzag(u)
		if want == nil || int(want[k]) == i {
			out[k] = prev
			k++
		}
	}
	if want == nil && len(blk) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in delta block", len(blk))
	}
	return out, nil
}

func encodeFloats(vals []float64) []byte {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func decodeFloats(blk []byte, rows int, want []int32) ([]float64, error) {
	if len(blk) != rows*8 {
		return nil, fmt.Errorf("float block is %d bytes for %d rows", len(blk), rows)
	}
	at := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(blk[i*8:])) }
	if want != nil {
		out := make([]float64, len(want))
		for k, r := range want {
			if int(r) >= rows {
				return nil, fmt.Errorf("row %d of a %d-row float block", r, rows)
			}
			out[k] = at(int(r))
		}
		return out, nil
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = at(i)
	}
	return out, nil
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

// walkStrs calls fn with the bounds, within blk, of the cell of each
// wanted row of a string block, in row order: every row when want is nil
// (k is the row), else the rows want lists in ascending order (k indexes
// want). It stops after the last wanted row and allocates nothing per row.
func walkStrs(blk []byte, enc byte, rows int, want []int32, fn func(k, lo, hi int)) error {
	off := 0
	next := func() (lo, hi int, ok bool) { // the next length-prefixed cell
		u, w := binary.Uvarint(blk[off:])
		if w <= 0 || u > uint64(len(blk)-off-w) {
			return 0, 0, false
		}
		lo = off + w
		off = lo + int(u)
		return lo, off, true
	}
	var dict [][2]int
	switch enc {
	case encStrRaw:
	case encDict:
		nd, w := binary.Uvarint(blk)
		if w <= 0 || nd > segDictMaxCard {
			return fmt.Errorf("corrupt string dictionary")
		}
		off = w
		dict = make([][2]int, nd)
		for i := range dict {
			lo, hi, ok := next()
			if !ok {
				return fmt.Errorf("truncated string dictionary")
			}
			dict[i] = [2]int{lo, hi}
		}
	default:
		return fmt.Errorf("unknown string encoding %d", enc)
	}
	n := rows
	if want != nil {
		n = len(want)
	}
	k := 0
	for i := 0; k < n; i++ {
		if i >= rows {
			return fmt.Errorf("row %d of a %d-row string block", want[k], rows)
		}
		var lo, hi int
		if enc == encDict {
			u, w := binary.Uvarint(blk[off:])
			if w <= 0 || u >= uint64(len(dict)) {
				return fmt.Errorf("dictionary index out of range at row %d", i)
			}
			off += w
			lo, hi = dict[u][0], dict[u][1]
		} else {
			var ok bool
			if lo, hi, ok = next(); !ok {
				return fmt.Errorf("truncated string block at row %d", i)
			}
		}
		if want == nil || int(want[k]) == i {
			fn(k, lo, hi)
			k++
		}
	}
	if want == nil && off != len(blk) {
		return fmt.Errorf("%d trailing bytes in string block", len(blk)-off)
	}
	return nil
}

// decodeStrings inverts encodeStrings. A full decode (want nil), or a
// subset of more than a quarter of the rows, copies the block into one
// string and returns its cells as substrings: the column costs two
// allocations whatever its row count, and rows that share a dictionary
// entry share its bytes — the on-disk dictionary doubles as the interner.
// A sparser subset (a lookup's few rows) allocates one string per cell
// and pins nothing else.
func decodeStrings(blk []byte, enc byte, rows int, want []int32) ([]string, error) {
	n := rows
	if want != nil {
		n = len(want)
	}
	out := make([]string, n)
	cell := func(k, lo, hi int) { out[k] = string(blk[lo:hi]) }
	if n*4 > rows {
		whole := string(blk)
		cell = func(k, lo, hi int) { out[k] = whole[lo:hi] }
	}
	if err := walkStrs(blk, enc, rows, want, cell); err != nil {
		return nil, err
	}
	return out, nil
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
