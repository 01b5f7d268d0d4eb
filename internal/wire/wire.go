// Package wire is the agent↔collector protocol of the distributed
// deployment: per-node `mscope agent` monitors ship checkpointed column
// batches to a central `mscope collector` over a length-prefixed framed
// stream (TCP or unix socket). Every frame is self-delimiting — a 4-byte
// big-endian payload length, a 1-byte type, and a type-specific payload —
// so the decoder never reads past a frame and arbitrary garbage is
// rejected with an error, never a panic (FuzzWireFrameDecode pins this).
//
// The protocol embeds the resume and flow-control primitives the
// single-process pipeline already has:
//
//   - each Batch carries the source's monotone sequence number and the
//     tailer byte offset its records are checkpointed at, so a restarted
//     agent resumes from the collector-acked offset with zero duplicates
//     (the PR 2/PR 6 ledger, generalized to (agent, source) keys);
//   - each Ack returns record credits, bounding the records in flight
//     end-to-end — a slow collector stops the agent's tailers instead of
//     growing an unbounded buffer;
//   - Control frames push the collector's fidelity state to agents, so a
//     degraded deployment is visible (and exportable) at every node.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// Version is the protocol revision; a Hello carrying a different version
// is rejected at handshake.
const Version = 1

// MaxFrame bounds a frame payload. A length prefix beyond it is a
// protocol error — the decoder must never allocate attacker-controlled
// amounts of memory.
const MaxFrame = 16 << 20

// Frame types.
const (
	// TypeHello opens a connection: agent → collector.
	TypeHello = byte(iota + 1)
	// TypeHelloAck accepts or rejects the handshake: collector → agent.
	TypeHelloAck
	// TypeOpen announces one source the agent will ship: agent → collector.
	TypeOpen
	// TypeResume answers an Open with the offset to tail from: collector → agent.
	TypeResume
	// TypeBatch ships a checkpointed column batch of records: agent → collector.
	TypeBatch
	// TypeAck confirms a batch is applied and returns credits: collector → agent.
	TypeAck
	// TypeControl pushes fidelity state and backoff hints: collector → agent.
	TypeControl
	// TypeSourceState reports a terminal source condition (a failed
	// parser): agent → collector.
	TypeSourceState
	// TypeGoodbye ends a session cleanly after all acks arrived: agent → collector.
	TypeGoodbye

	maxType = TypeGoodbye
)

// Hello is the handshake: protocol version, the agent's stable identity,
// and its auth token.
type Hello struct {
	Version uint32
	AgentID string
	Token   string
}

// HelloAck accepts (with an initial credit grant) or rejects a Hello.
type HelloAck struct {
	OK     bool
	Reason string
	// Credit is the initial record credit window: the agent may have at
	// most this many unacked records in flight.
	Credit int64
}

// Open announces one source. SourceID is connection-local (the agent
// numbers its sources); Key is the deployment-wide source identity the
// ledger checkpoints under (the log path, optionally prefixed per agent);
// Name is the base file name the collector resolves against the Parsing
// Declaration.
type Open struct {
	SourceID uint32
	Key      string
	Name     string
}

// Resume answers an Open: the byte offset the agent must start tailing
// at. Zero means re-read from the start (header-carrying formats resume
// by row count, which the collector applies on its side).
type Resume struct {
	SourceID uint32
	Offset   int64
}

// Batch is one checkpointed column batch: Seq is per-source and
// contiguous from 1 within a connection; Offset is the tailer byte
// offset every record in (and before) this batch is derived from;
// Quarantined is the source's running malformed-region count in this
// agent incarnation. Records are column-encoded (see Segment).
type Batch struct {
	SourceID    uint32
	Seq         uint64
	Offset      int64
	Quarantined int64
	Segments    []Segment

	arena []byte   // the cells of a batch built here
	spans []uint32 // their spans, all segments' end to end
}

// Records counts the rows across the batch's segments.
func (b *Batch) Records() int {
	n := 0
	for i := range b.Segments {
		n += b.Segments[i].Rows
	}
	return n
}

// Ack confirms the collector applied a batch. Credit returns the
// record-count window consumed by that batch to the agent.
type Ack struct {
	SourceID uint32
	Seq      uint64
	Offset   int64
	Credit   int64
}

// Control pushes the collector's fidelity state (a fidelity.State value)
// to every agent whenever it changes. Queue is the collector's record
// channel fill in percent — a backoff hint agents export.
type Control struct {
	State    uint8
	QueuePct uint8
}

// Source terminal states shipped in SourceState.
const (
	SourceFailed = uint8(1)
	SourceEOF    = uint8(2)
)

// SourceState reports a source-level terminal condition.
type SourceState struct {
	SourceID uint32
	State    uint8
	Error    string
}

// Goodbye closes a session cleanly; the agent sends it only after every
// outstanding batch was acked, so the collector can retire the
// connection's sources knowing all their records are applied.
type Goodbye struct {
	Reason string
}

// WriteFrame encodes one frame — length, type, payload — to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame decodes one frame from r. It returns io.EOF only at a clean
// frame boundary; a truncated frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, MaxFrame)
	}
	if typ == 0 || typ > maxType {
		return 0, nil, fmt.Errorf("wire: unknown frame type %d", typ)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}

// enc is a little append-based encoder: uvarint-framed strings and
// varint-encoded integers keep small frames small (a typical Ack is under
// twenty bytes).
type enc struct{ b []byte }

func (e *enc) u32(v uint32)   { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) uv(v uint64)    { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) iv(v int64)     { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)    { e.b = append(e.b, v) }
func (e *enc) bool(v bool)    { e.b = append(e.b, b2u(v)) }
func (e *enc) str(s string)   { e.uv(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) { e.uv(uint64(len(p))); e.b = append(e.b, p...) }

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// dec is the matching bounds-checked decoder; every read can fail, and a
// failure poisons the decoder so callers check once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or corrupt %s", what)
	}
}

func (d *dec) u32(what string) uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) uv(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) iv(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte(what string) byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool(what string) bool { return d.byte(what) != 0 }

// bytes reads a length-prefixed value in place: a slice of the input.
func (d *dec) bytes(what string) []byte {
	n := d.uv(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail(what)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str(what string) string { return string(d.bytes(what)) }

func (d *dec) done(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %s", len(d.b), what)
	}
	return nil
}

// EncodeHello serializes a Hello payload.
func EncodeHello(h Hello) []byte {
	var e enc
	e.u32(h.Version)
	e.str(h.AgentID)
	e.str(h.Token)
	return e.b
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	d := dec{b: b}
	h := Hello{
		Version: d.u32("hello version"),
		AgentID: d.str("hello agent id"),
		Token:   d.str("hello token"),
	}
	return h, d.done("hello")
}

// EncodeHelloAck serializes a HelloAck payload.
func EncodeHelloAck(a HelloAck) []byte {
	var e enc
	e.bool(a.OK)
	e.str(a.Reason)
	e.iv(a.Credit)
	return e.b
}

// DecodeHelloAck parses a HelloAck payload.
func DecodeHelloAck(b []byte) (HelloAck, error) {
	d := dec{b: b}
	a := HelloAck{
		OK:     d.bool("helloack ok"),
		Reason: d.str("helloack reason"),
		Credit: d.iv("helloack credit"),
	}
	return a, d.done("helloack")
}

// EncodeOpen serializes an Open payload.
func EncodeOpen(o Open) []byte {
	var e enc
	e.u32(o.SourceID)
	e.str(o.Key)
	e.str(o.Name)
	return e.b
}

// DecodeOpen parses an Open payload.
func DecodeOpen(b []byte) (Open, error) {
	d := dec{b: b}
	o := Open{
		SourceID: d.u32("open source id"),
		Key:      d.str("open key"),
		Name:     d.str("open name"),
	}
	return o, d.done("open")
}

// EncodeResume serializes a Resume payload.
func EncodeResume(r Resume) []byte {
	var e enc
	e.u32(r.SourceID)
	e.iv(r.Offset)
	return e.b
}

// DecodeResume parses a Resume payload.
func DecodeResume(b []byte) (Resume, error) {
	d := dec{b: b}
	r := Resume{
		SourceID: d.u32("resume source id"),
		Offset:   d.iv("resume offset"),
	}
	return r, d.done("resume")
}

// EncodeAck serializes an Ack payload.
func EncodeAck(a Ack) []byte {
	var e enc
	e.u32(a.SourceID)
	e.uv(a.Seq)
	e.iv(a.Offset)
	e.iv(a.Credit)
	return e.b
}

// DecodeAck parses an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	d := dec{b: b}
	a := Ack{
		SourceID: d.u32("ack source id"),
		Seq:      d.uv("ack seq"),
		Offset:   d.iv("ack offset"),
		Credit:   d.iv("ack credit"),
	}
	return a, d.done("ack")
}

// EncodeControl serializes a Control payload.
func EncodeControl(c Control) []byte {
	var e enc
	e.byte(c.State)
	e.byte(c.QueuePct)
	return e.b
}

// DecodeControl parses a Control payload.
func DecodeControl(b []byte) (Control, error) {
	d := dec{b: b}
	c := Control{
		State:    d.byte("control state"),
		QueuePct: d.byte("control queue"),
	}
	return c, d.done("control")
}

// EncodeSourceState serializes a SourceState payload.
func EncodeSourceState(s SourceState) []byte {
	var e enc
	e.u32(s.SourceID)
	e.byte(s.State)
	e.str(s.Error)
	return e.b
}

// DecodeSourceState parses a SourceState payload.
func DecodeSourceState(b []byte) (SourceState, error) {
	d := dec{b: b}
	s := SourceState{
		SourceID: d.u32("sourcestate source id"),
		State:    d.byte("sourcestate state"),
		Error:    d.str("sourcestate error"),
	}
	return s, d.done("sourcestate")
}

// EncodeGoodbye serializes a Goodbye payload.
func EncodeGoodbye(g Goodbye) []byte {
	var e enc
	e.str(g.Reason)
	return e.b
}

// DecodeGoodbye parses a Goodbye payload.
func DecodeGoodbye(b []byte) (Goodbye, error) {
	d := dec{b: b}
	g := Goodbye{Reason: d.str("goodbye reason")}
	return g, d.done("goodbye")
}

// Conn wraps a stream with buffered frame I/O. Reads and writes are each
// single-goroutine (the agent and collector both dedicate a reader and a
// writer goroutine per connection); Flush must follow writes before
// waiting on the peer.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// CountingConn counts raw bytes both ways for the wire metrics of
// whichever daemon owns the connection.
type CountingConn struct {
	net.Conn
	Tx, Rx *atomic.Int64
}

func (c CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.Rx.Add(int64(n))
	return n, err
}

func (c CountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.Tx.Add(int64(n))
	return n, err
}

// NewConn buffers rw for frame I/O.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, 64<<10), w: bufio.NewWriterSize(rw, 64<<10)}
}

// Read decodes the next frame.
func (c *Conn) Read() (byte, []byte, error) { return ReadFrame(c.r) }

// Write encodes one frame; call Flush to push it to the peer.
func (c *Conn) Write(typ byte, payload []byte) error { return WriteFrame(c.w, typ, payload) }

// Flush pushes buffered frames to the peer.
func (c *Conn) Flush() error { return c.w.Flush() }
