package mscopedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeSegment verifies a segment image and decodes every column: the
// whole-image form the codec tests speak, over the per-column decoder the
// readers use.
func decodeSegment(img []byte, wantTable string, wantCols []Column) ([]colData, int, error) {
	s, err := parseSegment(img, wantTable, wantCols)
	if err != nil {
		return nil, 0, err
	}
	data := make([]colData, len(wantCols))
	for ci := range data {
		if data[ci], err = s.column(ci, nil); err != nil {
			return nil, 0, err
		}
	}
	return data, s.rows, nil
}

// Row returns row i's cells as any values, schema-ordered: the boxed view
// the equivalence tests compare results through.
func (r *Result) Row(i int) []any {
	out := make([]any, len(r.t.cols))
	for c, col := range r.t.cols {
		d, err := r.col(c)
		if err != nil {
			panic(err)
		}
		switch row := r.idx[i]; col.Type {
		case TInt:
			out[c] = d.Ints[row]
		case TFloat:
			out[c] = d.Floats[row]
		case TTime:
			out[c] = time.UnixMicro(d.Times[row]).UTC()
		case TString:
			out[c] = d.Strs[row]
		}
	}
	return out
}

// goldenSegment is TestSegmentRoundTrip's image: one column of every type,
// a dictionary string column and a raw one.
func goldenSegment(t testing.TB, n int) ([]Column, []colData, []byte) {
	t.Helper()
	cols := []Column{
		{Name: "a", Type: TInt},
		{Name: "b", Type: TFloat},
		{Name: "c", Type: TTime},
		{Name: "d", Type: TString},
		{Name: "e", Type: TString},
	}
	data := make([]colData, len(cols))
	for i := 0; i < n; i++ {
		data[0].Ints = append(data[0].Ints, int64(i*i-5000))
		data[1].Floats = append(data[1].Floats, float64(i)*1.5-7)
		data[2].Times = append(data[2].Times, int64(1491004800000000+i*250))
		data[3].Strs = append(data[3].Strs, fmt.Sprintf("dev%d", i%7))
		data[4].Strs = append(data[4].Strs, fmt.Sprintf("req-%08d", i))
	}
	img, _, err := encodeSegment("ev", cols, data, n)
	if err != nil {
		t.Fatal(err)
	}
	return cols, data, img
}

// TestProjectedDecodeMatchesFull: for every column subset of the golden
// segment the projected decode equals the full decode restricted to it,
// and a row subset of any column equals the same rows of the full column.
func TestProjectedDecodeMatchesFull(t *testing.T) {
	cols, _, raw := goldenSegment(t, 700)
	full, rows, err := decodeSegment(raw, "ev", cols)
	if err != nil {
		t.Fatal(err)
	}
	img, err := parseSegment(raw, "ev", cols)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 1<<len(cols); mask++ {
		for ci := range cols {
			if mask&(1<<ci) == 0 {
				continue
			}
			got, err := img.column(ci, nil)
			if err != nil {
				t.Fatalf("subset %05b column %s: %v", mask, cols[ci].Name, err)
			}
			if !reflect.DeepEqual(got, full[ci]) {
				t.Fatalf("subset %05b column %s differs from the full decode", mask, cols[ci].Name)
			}
		}
	}
	for _, want := range [][]int32{{0}, {int32(rows - 1)}, {3, 4, 5, 99, 100, 698}, {}} {
		for ci, c := range cols {
			got, err := img.column(ci, want)
			if err != nil {
				t.Fatalf("rows %v of %s: %v", want, c.Name, err)
			}
			var exp colData
			appendCol(&exp, &full[ci], c.Type, want)
			if len(want) > 0 && !reflect.DeepEqual(got, exp) {
				t.Fatalf("rows %v of %s = %+v, want %+v", want, c.Name, got, exp)
			}
		}
	}
	if _, err := img.column(0, []int32{int32(rows)}); err == nil {
		t.Fatal("a row past the end decoded")
	}
}

// sameCol is DeepEqual over column data with floats compared by their
// bits, so a NaN a fuzzed block decodes to equals itself.
func sameCol(a, b colData) bool {
	if len(a.Floats) != len(b.Floats) {
		return false
	}
	for i := range a.Floats {
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	a.Floats, b.Floats = nil, nil
	return reflect.DeepEqual(a, b)
}

// reseal recomputes the checksum of a mutated segment image, so a fuzzed
// body gets past the CRC and exercises the decoders behind it.
func reseal(img []byte) []byte {
	tail := len(segEndMagic) + 4
	if len(img) < len(segMagic)+tail {
		return img
	}
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[len(out)-tail:], crc32.ChecksumIEEE(out[:len(out)-tail]))
	copy(out[len(out)-len(segEndMagic):], segEndMagic)
	return out
}

// rawStringImage re-serializes a segment image with its string columns
// stored raw (length-prefixed cells), the encoding the writer keeps for
// columns of more than segDictMaxCard distinct values: small seeds of it
// let the fuzzer reach that decoder without a 4097-row image.
func rawStringImage(t testing.TB, table string, cols []Column, data []colData, n int) []byte {
	t.Helper()
	img, _, err := encodeSegment(table, cols, data, n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseSegment(img, table, cols)
	if err != nil {
		t.Fatal(err)
	}
	var hdr, body bytes.Buffer
	putStr(&hdr, table)
	putUvarint(&hdr, uint64(n))
	putUvarint(&hdr, uint64(len(cols)))
	for ci, c := range cols {
		blk, enc := s.blocks[ci], s.encs[ci]
		if c.Type == TString {
			var raw bytes.Buffer
			for _, v := range data[ci].Strs[:n] {
				putStr(&raw, v)
			}
			blk, enc = raw.Bytes(), encStrRaw
		}
		putStr(&hdr, c.Name)
		hdr.Write([]byte{byte(c.Type), enc, 0})
		putUvarint(&body, uint64(len(blk)))
		body.Write(blk)
	}
	var out bytes.Buffer
	out.Write(segMagic)
	putUvarint(&out, uint64(hdr.Len()))
	out.Write(hdr.Bytes())
	out.Write(body.Bytes())
	out.Write(make([]byte, 4))
	out.Write(segEndMagic)
	return reseal(out.Bytes())
}

// FuzzSegmentDecode drives the full and the projected decoder on arbitrary
// bytes, as given and with the checksum repaired: neither panics nor
// allocates by an unchecked header field; when the full decode succeeds so
// does every projection, with equal columns; when it fails, a projection
// succeeds only if the damage sits in a column it skipped. A decode of
// ascending rows (every step-th from first, both from stride), which starts
// each row at its restart point, equals the column's full decode at those
// rows, or both fail.
func FuzzSegmentDecode(f *testing.F) {
	// Small seeds: the coverage-guided engine minimizes every interesting
	// input byte by byte, and crawls on images of a few kilobytes.
	cols, data, img := goldenSegment(f, 12)
	raw := rawStringImage(f, "ev", cols, data, 12)
	if got, _, err := decodeSegment(raw, "ev", cols); err != nil || !reflect.DeepEqual(got[4].Strs, data[4].Strs) {
		f.Fatalf("hand-assembled raw-string image: %v", err)
	}
	f.Add(img, byte(0b11111), uint16(0x0300))
	f.Add(img, byte(0b00101), uint16(0x0102))
	f.Add(raw, byte(0b11000), uint16(0x0204))
	flip := append([]byte(nil), img...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip, byte(0b10000), uint16(0))
	f.Add(img[:len(img)-3], byte(0b00001), uint16(0))
	f.Add([]byte("MSEG1\x00"), byte(0), uint16(0))
	// A tail file as a checkpoint builds it, two images in one buffer: the
	// second image on its own is a segment, the file as a whole is not.
	other, _, err := encodeSegment("other", cols[:1], data[:1], 3)
	if err != nil {
		f.Fatal(err)
	}
	second, _, err := encodeSegment("ev", cols, data, 5)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(second, byte(0b11111), uint16(0x0101))
	f.Add(append(other, second...), byte(0b00001), uint16(0))
	// Past restartEvery rows, so a decode of later rows starts at a later
	// restart point: every column, and raw strings too.
	_, longData, long := goldenSegment(f, 2*restartEvery+44)
	f.Add(long, byte(0b11111), uint16(0x7f05))
	f.Add(rawStringImage(f, "ev", cols, longData, 2*restartEvery+44), byte(0b10000), uint16(0x8003))
	f.Fuzz(func(t *testing.T, raw []byte, mask byte, stride uint16) {
		for _, b := range [][]byte{raw, reseal(raw)} {
			full, rows, fullErr := decodeSegment(b, "ev", cols)
			img, err := parseSegment(b, "ev", cols)
			if err != nil {
				if fullErr == nil {
					t.Fatalf("full decode passed an image the parser rejects: %v", err)
				}
				continue
			}
			skippedFails := false
			var want []int32
			for r := int(stride >> 8); r < img.rows; r += int(stride&0xff) + 1 {
				want = append(want, int32(r))
			}
			for ci := range cols {
				got, err := img.column(ci, nil)
				if want != nil {
					sub, subErr := img.column(ci, want)
					var exp colData
					if err == nil {
						appendCol(&exp, &got, cols[ci].Type, want)
					}
					if (err == nil) != (subErr == nil) || err == nil && !sameCol(sub, exp) {
						t.Fatalf("rows %v of %s: %v, full decode %v", want, cols[ci].Name, subErr, err)
					}
				}
				if mask&(1<<ci) == 0 {
					skippedFails = skippedFails || err != nil
					continue
				}
				if fullErr == nil {
					if err != nil {
						t.Fatalf("projection of %s failed where the full decode passed: %v", cols[ci].Name, err)
					}
					if !sameCol(got, full[ci]) || img.rows != rows {
						t.Fatalf("projection of %s differs from the full decode", cols[ci].Name)
					}
				} else if err != nil {
					skippedFails = true // the projection fails too
				}
			}
			if fullErr != nil && !skippedFails {
				t.Fatalf("full decode failed (%v) but every column decodes", fullErr)
			}
		}
	})
}

// spilledEvents builds a spilled table of n synthetic rows keyed by a
// request ID that repeats every idEvery rows, plus the same rows in memory.
func spilledEvents(t testing.TB, n, sealRows, idEvery int) (mem, spill *Table, sdb *DB) {
	t.Helper()
	cols := []Column{
		{Name: "reqid", Type: TString},
		{Name: "ua", Type: TInt},
		{Name: "ts", Type: TTime},
		{Name: "tier", Type: TString},
		{Name: "load", Type: TFloat},
	}
	mdb := Open()
	sdb, err := OpenDir(t.TempDir(), tinyStore(sealRows))
	if err != nil {
		t.Fatal(err)
	}
	tables := [2]*Table{}
	for i, db := range []*DB{mdb, sdb} {
		if tables[i], err = db.Create("ev", cols); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			id := fmt.Sprintf("req-%04d", r%idEvery)
			if r%11 == 0 {
				id = ""
			}
			if err := tables[i].Append(id, int64(1000+r), time.UnixMicro(int64(1491004800000000+r*100)).UTC(),
				fmt.Sprintf("t%d", r%3), float64(r)/4); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tables[0], tables[1], sdb
}

// scanAll collects a projected scan into whole columns.
func scanAll(t testing.TB, tbl *Table, cols []string) []colData {
	t.Helper()
	out := make([]colData, len(cols))
	err := tbl.Scan(cols, func(ch *Chunk) error {
		for i := range cols {
			appendCol(&out[i], &ch.data[i], ch.cols[i].Type, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanAndLookupMatchMemory: projected scans and lookups over a spilled
// table with a non-empty tail, and the same after compaction, return what
// the in-memory table holds.
func TestScanAndLookupMatchMemory(t *testing.T) {
	mem, spill, sdb := spilledEvents(t, 1000, 64, 90)
	if spill.Segments() < 10 || spill.SealedRows() == spill.Rows() {
		t.Fatalf("want many segments and a tail, have %d segments, %d of %d rows sealed",
			spill.Segments(), spill.SealedRows(), spill.Rows())
	}
	check := func(stage string) {
		t.Helper()
		for _, cols := range [][]string{{"reqid"}, {"load", "ua"}, {"ts", "tier", "reqid", "ua", "load"}} {
			if want, got := scanAll(t, mem, cols), scanAll(t, spill, cols); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: scan of %v differs from memory", stage, cols)
			}
		}
		for _, vals := range [][]string{{"req-0007"}, {"req-0089", "req-0000", "nope"}, {""}, {"nope"}} {
			cols := []string{"ua", "reqid", "load", "ts", "tier"}
			want, err := mem.Lookup("reqid", vals, cols)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spill.Lookup("reqid", vals, cols)
			if err != nil {
				t.Fatal(err)
			}
			if want.rows != got.rows || !reflect.DeepEqual(want.data, got.data) {
				t.Fatalf("%s: lookup of %v: %d rows %+v, want %d rows %+v", stage, vals, got.rows, got.data, want.rows, want.data)
			}
			// The in-memory answer is itself checked against a plain filter.
			n := 0
			for r := 0; r < mem.Rows(); r++ {
				for _, v := range vals {
					if mem.Str(0, r) == v {
						if want.Ints(0)[n] != mem.Int(1, r) {
							t.Fatalf("lookup of %v row %d is not table row %d", vals, n, r)
						}
						n++
					}
				}
			}
			if n != want.rows {
				t.Fatalf("lookup of %v returned %d rows, the table has %d", vals, want.rows, n)
			}
		}
	}
	check("spilled")
	if bytes, _ := sdb.IndexStats(); bytes == 0 {
		t.Fatal("lookups built no index")
	}
	if err := sdb.Compact(); err != nil {
		t.Fatal(err)
	}
	if bytes, _ := sdb.IndexStats(); bytes != 0 {
		t.Fatalf("%d index bytes survive the segments they indexed", bytes)
	}
	check("compacted")
	if _, err := spill.Lookup("ua", []string{"1"}, nil); err == nil {
		t.Fatal("lookup on an int column accepted")
	}
}

// TestLookupHashCollision: two request IDs that collide under the index's
// hash each resolve to their own rows.
func TestLookupHashCollision(t *testing.T) {
	seen := make(map[uint32]string)
	var a, b string
	for i := 0; a == ""; i++ {
		id := fmt.Sprintf("req-%d", i)
		if other, ok := seen[lookupHash(id)]; ok {
			a, b = other, id
		}
		seen[lookupHash(id)] = id
	}
	db, err := OpenDir(t.TempDir(), tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Create("ev", []Column{{Name: "reqid", Type: TString}, {Name: "n", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := []string{a, b, "other"}[i%3]
		if err := tbl.Append(id, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k, id := range []string{a, b} {
		rows, err := tbl.Lookup("reqid", []string{id}, []string{"reqid", "n"})
		if err != nil {
			t.Fatal(err)
		}
		if rows.Rows() == 0 {
			t.Fatalf("%q not found", id)
		}
		for r, n := range rows.Ints(1) {
			if rows.Strs(0)[r] != id || int(n)%3 != k {
				t.Fatalf("lookup of %q (collides with the other) returned row %d of %q", id, n, rows.Strs(0)[r])
			}
		}
	}
}

// TestWindowGridBounds: a window below the warehouse's resolution and a
// grid past the bucket cap are errors, not a division by zero or an
// allocation the size of the trial in microseconds; a day of 50 ms windows
// is fine.
func TestWindowGridBounds(t *testing.T) {
	tbl, err := NewTable("ev", []Column{{Name: "ts", Type: TInt}, {Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	day := (24 * time.Hour).Microseconds()
	for _, ts := range []int64{0, 40_000_000, day} {
		if err := tbl.Append(ts, int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.WindowAgg("ts", time.Nanosecond, "v", AggMax); err == nil {
		t.Fatal("1ns window accepted")
	}
	if _, err := res.WindowAgg("ts", time.Microsecond, "v", AggMax); err == nil {
		t.Fatal("1us windows over a day accepted")
	}
	if _, err := res.WindowAggBy("ts", time.Nanosecond, "v", AggMax, "ts"); err == nil {
		t.Fatal("grouped 1ns window accepted")
	}
	s, err := res.WindowAgg("ts", 50*time.Millisecond, "v", AggCount)
	if err != nil {
		t.Fatalf("50ms windows over a day: %v", err)
	}
	if want := int(day/50_000) + 1; len(s.Values) != want {
		t.Fatalf("%d windows, want %d", len(s.Values), want)
	}
	// Extreme stamps must not overflow into a small grid.
	ext, _ := NewTable("x", []Column{{Name: "ts", Type: TInt}})
	_ = ext.Append(int64(math.MinInt64 / 2))
	_ = ext.Append(int64(math.MaxInt64/2 + 1<<40))
	res, _ = ext.Select().Rows()
	if _, err := res.WindowAgg("ts", time.Second, "", AggCount); err == nil {
		t.Fatal("a grid spanning all of int64 accepted")
	}
}

// TestUnreadableSegmentIsAnErrorNamingTheFile: a flipped byte in a
// committed segment makes Scan, Lookup and Select fail with a SegmentError
// that names the file; nothing panics and other tables still read.
func TestUnreadableSegmentIsAnErrorNamingTheFile(t *testing.T) {
	_, spill, sdb := spilledEvents(t, 300, 64, 50)
	if err := sdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := sdb.store.dir
	db, err := OpenDir(dir, tinyStore(64))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	file := spill.seal.segs[1].meta.File
	raw, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	scanErr := tbl.Scan([]string{"ua"}, func(*Chunk) error { return nil })
	_, lookupErr := tbl.Lookup("reqid", []string{"req-0001"}, []string{"ua"})
	_, selectErr := tbl.Select().Where("ua", OpGe, int64(0)).Rows()
	for name, err := range map[string]error{"scan": scanErr, "lookup": lookupErr, "select": selectErr} {
		var seg *SegmentError
		if !errors.As(err, &seg) || seg.File != file || !strings.Contains(err.Error(), "mscopedb: segment "+file+": ") {
			t.Fatalf("%s: error %v does not name segment %s", name, err, file)
		}
	}
	if _, err := db.Table(tableIngests); err != nil {
		t.Fatal(err)
	}
	ingests, _ := db.Table(tableIngests)
	if err := ingests.Scan([]string{"file"}, func(*Chunk) error { return nil }); err != nil {
		t.Fatalf("an untouched table stopped reading: %v", err)
	}
}

// TestReadersUnderSpillCompactWiden runs lookups and projected scans from
// several goroutines against one spilled table while a writer appends
// (spilling segments), widens a column (unspill) and the compactor merges:
// readers share the table the way serve's do, with the writer through a
// gate like Pipeline.WithDB (it also checkpoints, as the loader does) and
// the compactor free-running. Every answer
// equals the serial one for the rows present, and the index cache never
// passes its cap.
func TestReadersUnderSpillCompactWiden(t *testing.T) {
	const capBytes = 4 << 10
	db, err := OpenDir(t.TempDir(), tinyStore(32))
	if err != nil {
		t.Fatal(err)
	}
	db.store.lookups.cap = capBytes
	tbl, err := db.Create("ev", []Column{{Name: "reqid", Type: TString}, {Name: "n", Type: TInt}, {Name: "w", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	id := func(n int) string { return fmt.Sprintf("req-%03d", n%40) }
	var gate sync.RWMutex // the loader's exclusion: writers Lock, readers RLock
	appendRows := func(from, n int) {
		gate.Lock()
		defer gate.Unlock()
		cells := make([]Value, 0, 3*n)
		for i := from; i < from+n; i++ {
			w := Value{Type: TInt, Int: int64(i), Float: float64(i), Str: fmt.Sprint(i)}
			cells = append(cells, Value{Type: TString, Str: id(i)}, Value{Type: TInt, Int: int64(i), Str: fmt.Sprint(i)}, w)
		}
		if err := tbl.AppendRows(cells); err != nil {
			t.Error(err)
		}
		// The loader commits what it appended; the commit is what deletes
		// the files the compactor merged away under the readers.
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	appendRows(0, 200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the compactor, concurrent with everyone
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := db.CompactOnce(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				gate.RLock()
				rows := tbl.Rows()
				want := id(k*7 + g)
				got, err := tbl.Lookup("reqid", []string{want}, []string{"n", "reqid"})
				if err != nil {
					t.Errorf("lookup: %v", err)
				} else {
					exp := 0
					for n := 0; n < rows; n++ {
						if id(n) == want {
							if exp >= got.Rows() || got.Ints(0)[exp] != int64(n) || got.Strs(1)[exp] != want {
								t.Errorf("lookup of %s at %d rows: row %d is wrong", want, rows, exp)
								break
							}
							exp++
						}
					}
					if exp != got.Rows() {
						t.Errorf("lookup of %s at %d rows: %d rows, want %d", want, rows, got.Rows(), exp)
					}
				}
				next := 0
				err = tbl.Scan([]string{"n"}, func(ch *Chunk) error {
					for _, n := range ch.Ints(0) {
						if n != int64(next) {
							return fmt.Errorf("scan row %d holds %d", next, n)
						}
						next++
					}
					return nil
				})
				if err != nil || next != rows {
					t.Errorf("scan at %d rows: %d delivered, err %v", rows, next, err)
				}
				gate.RUnlock()
				if bytes, _ := db.IndexStats(); bytes > capBytes {
					t.Errorf("index cache holds %d bytes, cap %d", bytes, capBytes)
				}
			}
		}(g)
	}
	for from := 200; from < 1000; from += 100 {
		appendRows(from, 100)
		if from == 600 {
			gate.Lock()
			if err := tbl.Widen("w", TFloat); err != nil {
				t.Error(err)
			}
			gate.Unlock()
		}
	}
	close(stop)
	wg.Wait()
	if _, evictions := db.IndexStats(); evictions == 0 {
		t.Error("a 4 KiB cap over dozens of segments evicted nothing")
	}
}
