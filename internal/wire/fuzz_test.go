package wire

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
)

// frameBytes encodes one frame to raw bytes for the seed corpus.
func frameBytes(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzWireFrameDecode is the satellite fuzz target: arbitrary bytes must
// never panic the frame reader or any message decoder, and well-formed
// frames (the seed corpus) must round-trip exactly.
func FuzzWireFrameDecode(f *testing.F) {
	f.Add(frameBytes(TypeHello, EncodeHello(Hello{Version: Version, AgentID: "a1", Token: "t"})))
	f.Add(frameBytes(TypeHelloAck, EncodeHelloAck(HelloAck{OK: true, Credit: 4096})))
	f.Add(frameBytes(TypeOpen, EncodeOpen(Open{SourceID: 1, Key: "/x/apache_event.log", Name: "apache_event.log"})))
	f.Add(frameBytes(TypeResume, EncodeResume(Resume{SourceID: 1, Offset: 99})))
	f.Add(frameBytes(TypeAck, EncodeAck(Ack{SourceID: 1, Seq: 7, Offset: 1024, Credit: 128})))
	f.Add(frameBytes(TypeControl, EncodeControl(Control{State: 1, QueuePct: 50})))
	f.Add(frameBytes(TypeSourceState, EncodeSourceState(SourceState{SourceID: 2, State: SourceFailed, Error: "x"})))
	f.Add(frameBytes(TypeGoodbye, EncodeGoodbye(Goodbye{Reason: "done"})))
	b := Batch{SourceID: 5, Seq: 3, Offset: 512, Quarantined: 1}
	b.AppendEntries([]mxml.Entry{
		{Fields: []mxml.Field{{Name: "reqid", Value: "R1"}, {Name: "ud", Value: "42"}}},
		{Fields: []mxml.Field{{Name: "ts", Value: "now", Hint: "time"}}},
	})
	f.Add(frameBytes(TypeBatch, EncodeBatch(&b)))
	// A zero-length value whose length is not in canonical form: it
	// decodes, and re-encodes canonically.
	var e enc
	e.u32(5)
	e.uv(3)
	e.iv(512)
	e.iv(1)
	e.uv(1) // segments
	e.uv(1) // fields
	e.str("ud")
	e.str("")
	e.uv(1) // rows
	e.b = append(e.b, 0x80, 0x00)
	f.Add(frameBytes(TypeBatch, e.b))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, TypeGoodbye})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && err.Error() == "" {
					t.Fatalf("empty error")
				}
				return
			}
			// Whatever the bytes, decoding must return, not panic.
			switch typ {
			case TypeHello:
				if h, err := DecodeHello(payload); err == nil {
					if got, err2 := DecodeHello(EncodeHello(h)); err2 != nil || got != h {
						t.Fatalf("hello re-encode mismatch: %+v vs %+v (%v)", h, got, err2)
					}
				}
			case TypeHelloAck:
				if v, err := DecodeHelloAck(payload); err == nil {
					if got, err2 := DecodeHelloAck(EncodeHelloAck(v)); err2 != nil || got != v {
						t.Fatalf("helloack re-encode mismatch")
					}
				}
			case TypeOpen:
				if v, err := DecodeOpen(payload); err == nil {
					if got, err2 := DecodeOpen(EncodeOpen(v)); err2 != nil || got != v {
						t.Fatalf("open re-encode mismatch")
					}
				}
			case TypeResume:
				if v, err := DecodeResume(payload); err == nil {
					if got, err2 := DecodeResume(EncodeResume(v)); err2 != nil || got != v {
						t.Fatalf("resume re-encode mismatch")
					}
				}
			case TypeAck:
				if v, err := DecodeAck(payload); err == nil {
					if got, err2 := DecodeAck(EncodeAck(v)); err2 != nil || got != v {
						t.Fatalf("ack re-encode mismatch")
					}
				}
			case TypeControl:
				if v, err := DecodeControl(payload); err == nil {
					if got, err2 := DecodeControl(EncodeControl(v)); err2 != nil || got != v {
						t.Fatalf("control re-encode mismatch")
					}
				}
			case TypeSourceState:
				if v, err := DecodeSourceState(payload); err == nil {
					if got, err2 := DecodeSourceState(EncodeSourceState(v)); err2 != nil || got != v {
						t.Fatalf("sourcestate re-encode mismatch")
					}
				}
			case TypeGoodbye:
				if v, err := DecodeGoodbye(payload); err == nil {
					if got, err2 := DecodeGoodbye(EncodeGoodbye(v)); err2 != nil || got != v {
						t.Fatalf("goodbye re-encode mismatch")
					}
				}
			case TypeBatch:
				if v, err := DecodeBatch(payload); err == nil {
					// A decoded batch's cells are spans of its payload, so
					// the round trip compares content: the re-encode decodes
					// to the same header, shapes and cells, and encodes to
					// the same bytes — canonical, a fixed point.
					frame := EncodeBatch(&v)
					re, err2 := DecodeBatch(frame)
					if err2 != nil {
						t.Fatalf("batch re-encode does not decode: %v", err2)
					}
					if got, want := batchContent(t, &re), batchContent(t, &v); got != want {
						t.Fatalf("batch re-encode mismatch:\n%s\nwant\n%s", got, want)
					}
					if !bytes.Equal(EncodeBatch(&re), frame) {
						t.Fatal("batch re-encode is not a fixed point")
					}
				}
			}
		}
	})
}

// batchContent renders what a batch says — its header, each segment's shape,
// each record's cells — and nothing of where the bytes are.
func batchContent(t *testing.T, b *Batch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "source %d seq %d offset %d quarantined %d\n", b.SourceID, b.Seq, b.Offset, b.Quarantined)
	for i := range b.Segments {
		fmt.Fprintf(&sb, "segment %d rows of %q\n", b.Segments[i].Rows, b.Segments[i].Fields)
	}
	err := b.EachRecord(func(r *parsers.Record) error {
		for _, c := range r.Cells {
			fmt.Fprintf(&sb, "%q %q %q|", c.Name, c.Hint, c.Text)
		}
		sb.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
