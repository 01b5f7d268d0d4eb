package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, TypeHello, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeHello || !bytes.Equal(got, payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
	// A clean boundary reads io.EOF, not ErrUnexpectedEOF.
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("at boundary: %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeAck, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("cut at %d decoded", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut at %d reported clean EOF", cut)
		}
	}
}

func TestFrameRejectsOversizeAndUnknownType(t *testing.T) {
	oversize := []byte{0xff, 0xff, 0xff, 0xff, TypeHello}
	if _, _, err := ReadFrame(bytes.NewReader(append(oversize, 0))); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversize length: %v", err)
	}
	bad := []byte{0, 0, 0, 0, 99}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "unknown frame type") {
		t.Fatalf("unknown type: %v", err)
	}
	if err := WriteFrame(io.Discard, TypeBatch, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	h := Hello{Version: Version, AgentID: "node-3", Token: "s3cret"}
	if got, err := DecodeHello(EncodeHello(h)); err != nil || got != h {
		t.Fatalf("hello: %+v %v", got, err)
	}
	ha := HelloAck{OK: true, Reason: "", Credit: 4096}
	if got, err := DecodeHelloAck(EncodeHelloAck(ha)); err != nil || got != ha {
		t.Fatalf("helloack: %+v %v", got, err)
	}
	o := Open{SourceID: 7, Key: "/logs/apache_event.log", Name: "apache_event.log"}
	if got, err := DecodeOpen(EncodeOpen(o)); err != nil || got != o {
		t.Fatalf("open: %+v %v", got, err)
	}
	r := Resume{SourceID: 7, Offset: -1}
	if got, err := DecodeResume(EncodeResume(r)); err != nil || got != r {
		t.Fatalf("resume: %+v %v", got, err)
	}
	a := Ack{SourceID: 7, Seq: 42, Offset: 1 << 40, Credit: 512}
	if got, err := DecodeAck(EncodeAck(a)); err != nil || got != a {
		t.Fatalf("ack: %+v %v", got, err)
	}
	c := Control{State: 1, QueuePct: 88}
	if got, err := DecodeControl(EncodeControl(c)); err != nil || got != c {
		t.Fatalf("control: %+v %v", got, err)
	}
	ss := SourceState{SourceID: 9, State: SourceFailed, Error: "parser died"}
	if got, err := DecodeSourceState(EncodeSourceState(ss)); err != nil || got != ss {
		t.Fatalf("sourcestate: %+v %v", got, err)
	}
	g := Goodbye{Reason: "drained"}
	if got, err := DecodeGoodbye(EncodeGoodbye(g)); err != nil || got != g {
		t.Fatalf("goodbye: %+v %v", got, err)
	}
}

func TestMessageTrailingBytesRejected(t *testing.T) {
	b := append(EncodeAck(Ack{SourceID: 1, Seq: 1}), 0xee)
	if _, err := DecodeAck(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func sampleEntries() []mxml.Entry {
	mk := func(fs ...mxml.Field) mxml.Entry { return mxml.Entry{Fields: fs} }
	return []mxml.Entry{
		mk(mxml.Field{Name: "reqid", Value: "R0001"}, mxml.Field{Name: "ua", Value: "100"},
			mxml.Field{Name: "ud", Value: "250"}),
		mk(mxml.Field{Name: "reqid", Value: "R0002"}, mxml.Field{Name: "ua", Value: "110"},
			mxml.Field{Name: "ud", Value: "260"}),
		// Shape change: a hint appears.
		mk(mxml.Field{Name: "ts", Value: "2026-01-01T00:00:00Z", Hint: "time"},
			mxml.Field{Name: "dsk_util", Value: "93.5"}),
		mk(mxml.Field{Name: "ts", Value: "2026-01-01T00:00:01Z", Hint: "time"},
			mxml.Field{Name: "dsk_util", Value: "91.0"}),
		// And back.
		mk(mxml.Field{Name: "reqid", Value: "R0003"}, mxml.Field{Name: "ua", Value: "120"},
			mxml.Field{Name: "ud", Value: "300"}),
	}
}

func TestBatchRoundTripPreservesEntries(t *testing.T) {
	in := sampleEntries()
	b := Batch{SourceID: 3, Seq: 9, Offset: 12345, Quarantined: 2}
	b.AppendEntries(in)
	if got := b.Records(); got != len(in) {
		t.Fatalf("Records() = %d, want %d", got, len(in))
	}
	if len(b.Segments) != 3 {
		t.Fatalf("segmented into %d runs, want 3 (shape changes twice)", len(b.Segments))
	}
	dec, err := DecodeBatch(EncodeBatch(&b))
	if err != nil {
		t.Fatal(err)
	}
	if dec.SourceID != 3 || dec.Seq != 9 || dec.Offset != 12345 || dec.Quarantined != 2 {
		t.Fatalf("header mangled: %+v", dec)
	}
	var out []mxml.Entry
	var adapter parsers.Entries
	if err := dec.EachRecord(func(r *parsers.Record) error { out = append(out, adapter.Entry(r)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(in[i].Fields, out[i].Fields) {
			t.Errorf("entry %d: %+v != %+v", i, out[i].Fields, in[i].Fields)
		}
	}
}

// TestRecordsShipTheEntriesFrame: a batch built from parsed records is the
// frame the entries the adapter makes of them give, and reading a decoded
// batch back as records costs nothing a row.
func TestRecordsShipTheEntriesFrame(t *testing.T) {
	in := sampleEntries()
	var recs []parsers.Record
	for _, e := range in {
		var r parsers.Record
		for _, f := range e.Fields {
			r.Cells = append(r.Cells, parsers.Cell{Name: f.Name, Hint: f.Hint, Text: []byte(f.Value)})
		}
		recs = append(recs, r)
	}
	entries, records := Batch{SourceID: 3, Seq: 9}, Batch{SourceID: 3, Seq: 9}
	entries.AppendEntries(in)
	for i := range recs {
		if err := records.AppendRecord(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	frame := EncodeBatch(&entries)
	if !bytes.Equal(EncodeBatch(&records), frame) {
		t.Fatal("records and their entries encode to different frames")
	}
	dec, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		dec.Segments = append(dec.Segments, dec.Segments[:3]...)
	}
	rows := 0
	count := func(*parsers.Record) error { rows++; return nil }
	if n := testing.AllocsPerRun(20, func() { dec.EachRecord(count) }); n > 1 {
		t.Errorf("EachRecord allocated %.0f times a batch of %d records", n, dec.Records())
	}
}

// frameRecords makes n apache-like event records in three runs of two
// shapes — the same one either side of a run that adds a computed time
// cell — so they fold into a three-segment batch.
func frameRecords(n int) []parsers.Record {
	recs := make([]parsers.Record, n)
	for i := range recs {
		text := func(name, v string) parsers.Cell { return parsers.Cell{Name: name, Text: []byte(v)} }
		r := &recs[i]
		r.Cells = []parsers.Cell{
			text("reqid", fmt.Sprintf("req-%010d", i)),
			text("client", "10.0.0.9"),
			text("method", "GET"),
			text("uri", fmt.Sprintf("/rubbos/ViewStory?storyId=%d", i*7)),
			text("status", "200"),
			text("bytes", strconv.Itoa(1000+i)),
			{Name: "ua", Kind: parsers.CellInt, Int: 1491004800000000 + int64(i)*300},
			{Name: "ud", Kind: parsers.CellInt, Int: 1491004800000000 + int64(i)*300 + 4100},
		}
		if i >= n/3 && i < 2*n/3 {
			r.Cells = append(r.Cells, parsers.Cell{Name: "ts", Hint: "time", Kind: parsers.CellTime, Int: 1491004800 + int64(i), Nsec: 250_000})
		}
	}
	return recs
}

// TestBatchAllocations pins what a frame costs: building one on a Reset
// batch nothing, encoding it one buffer, decoding it the segment table and
// each segment's fields and spans — never a cell.
func TestBatchAllocations(t *testing.T) {
	recs := frameRecords(512)
	var b Batch
	build := func() {
		b.Reset()
		for i := range recs {
			if err := b.AppendRecord(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	build()
	if len(b.Segments) != 3 || b.Records() != len(recs) {
		t.Fatalf("%d records in %d segments, want %d in 3", b.Records(), len(b.Segments), len(recs))
	}
	if n := testing.AllocsPerRun(20, build); n != 0 {
		t.Errorf("AppendRecord on a Reset batch allocated %.0f times in %d records", n, len(recs))
	}
	if n := testing.AllocsPerRun(20, func() { EncodeBatch(&b) }); n != 1 {
		t.Errorf("EncodeBatch allocated %.0f times, want 1", n)
	}
	frame := EncodeBatch(&b)
	if n := testing.AllocsPerRun(20, func() { DecodeBatch(frame) }); n > 2*3+1 {
		t.Errorf("DecodeBatch of %d records in 3 segments allocated %.0f times, want <= 7", len(recs), n)
	}
	// The reused batch still builds the frame a fresh one does.
	var fresh Batch
	for i := range recs {
		fresh.AppendRecord(&recs[i])
	}
	if !bytes.Equal(EncodeBatch(&fresh), frame) {
		t.Error("a Reset batch and a fresh one encode the same records differently")
	}
}

// TestDecodeBatchConcurrently: each collector connection decodes on its own
// goroutine, and all of them intern field names in one table.
func TestDecodeBatchConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("field-%d-%d", g, i%10)
				var b Batch
				b.AppendEntries([]mxml.Entry{{Fields: []mxml.Field{{Name: name, Value: "v"}}}})
				d, err := DecodeBatch(EncodeBatch(&b))
				if err != nil || d.Segments[0].Fields[0].Name != name {
					t.Errorf("decoded %+v, %v; want field %s", d.Segments, err, name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkWireFrame is one agent-to-collector hop of 512 records: build
// the batch, encode it, decode the frame, read its records back.
func BenchmarkWireFrame(bm *testing.B) {
	recs := frameRecords(512)
	var b Batch
	cells := 0
	count := func(r *parsers.Record) error { cells += len(r.Cells); return nil }
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		b.Reset()
		for j := range recs {
			b.AppendRecord(&recs[j])
		}
		dec, err := DecodeBatch(EncodeBatch(&b))
		if err != nil {
			bm.Fatal(err)
		}
		dec.EachRecord(count)
	}
	bm.ReportMetric(float64(bm.Elapsed().Nanoseconds())/float64(bm.N*len(recs)), "ns/record")
}

func TestBatchDecodeRejectsCorruptCounts(t *testing.T) {
	b := Batch{SourceID: 1, Seq: 1}
	b.AppendEntries(sampleEntries())
	good := EncodeBatch(&b)
	// Flipping bytes anywhere must never panic, and mostly must error.
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		_, _ = DecodeBatch(mut)
	}
	// A frame claiming absurd rows with no bytes behind it errors.
	var e enc
	e.u32(1)
	e.uv(1)
	e.iv(0)
	e.iv(0)
	e.uv(1) // one segment
	e.uv(1) // one field
	e.str("f")
	e.str("")
	e.uv(1 << 40) // rows
	if _, err := DecodeBatch(e.b); err == nil {
		t.Fatal("absurd row count accepted")
	}
}

func TestConnFrameStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})
	if err := c.Write(TypeControl, EncodeControl(Control{State: 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, p, err := c.Read()
	if err != nil || typ != TypeControl {
		t.Fatalf("read: %d %v", typ, err)
	}
	if got, err := DecodeControl(p); err != nil || got.State != 2 {
		t.Fatalf("control: %+v %v", got, err)
	}
}
