package stream

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Batch is what the front end hands its caller at each delivery: how many
// records of one file the sink took since the last, and what is true of the
// file once they are counted.
type Batch struct {
	Records int
	// Offset is the byte offset that covers exactly the records delivered so
	// far, this batch's included: a reader restarted there re-reads none of
	// them and misses none. It is never ahead of its records; it stays behind
	// them while the parser is part-way through what the tailer handed it.
	Offset int64
	// Rotations counts the truncations the tailer has seen; Offset restarts
	// with each.
	Rotations int64
	// Quarantined is the file's malformed regions so far.
	Quarantined int64
	// Err, on a file's last batch, is why it ended early: its parser died or
	// the file could not be read.
	Err error
}

// Sink takes one file's records and batches, in order, on that file's
// parser goroutine. Record takes each record as the parser hands it over;
// the record and the bytes under it are the parser's again once it
// returns, and an error ends the parse. Deliver takes each batch: blocking
// in it is the backpressure edge — the parser stops, its pipe fills, and
// the tailer reads the file later. False means the caller has no further
// use for the file, which is then not read again.
type Sink struct {
	Record  parsers.Sink
	Deliver func(Batch) bool
}

// FrontConfig parameterizes a FrontEnd. Every field but Filter and Obs is
// required.
type FrontConfig struct {
	LogDir string
	Plan   *transform.Plan
	Poll   time.Duration
	// BatchCap bounds a Batch: a parser working through a backlog fills
	// batches to it, and holds no more than one.
	BatchCap int
	// Filter, when set, limits discovery to the streamable files it accepts.
	Filter func(name string) bool
	// Open adopts a newly appeared file: where tailing starts (the ingest
	// ledger's offset locally, the collector's Resume frame on an agent) and
	// who takes its records. A Sink with no Deliver declines the file; it is
	// offered again at the next scan unless Filter has come to exclude it.
	Open func(path, name string, b transform.Binding) (Sink, int64)
	// Pipe is the selfobs pipeline the tail/poll and parse/source spans are
	// recorded under, on Obs when set and on the process's collector
	// otherwise.
	Pipe string
	Obs  *selfobs.Collector
}

// FrontEnd is the source front end of both deployment shapes: it discovers
// the streamable files of a directory, tails each one from its resume
// offset, feeds the bytes through the file's mScopeParser over a pipe
// (degraded mode when the parser has one, so malformed regions are counted
// and skipped with the batch quarantine's record-boundary resync) and
// hands the records to the caller in stamped batches. The live pipeline
// puts a loader behind it, the agent a credit window and a socket.
type FrontEnd struct {
	cfg      FrontConfig
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	drain    bool // written before stop closes
	feeds    []*feed
	known    map[string]bool
	parsers  sync.WaitGroup
}

// NewFrontEnd builds a front end; Start runs it.
func NewFrontEnd(cfg FrontConfig) *FrontEnd {
	return &FrontEnd{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{}),
		known: make(map[string]bool)}
}

// Start launches discovery and polling.
func (fe *FrontEnd) Start() { go fe.run() }

// Stop is the clean shutdown: discover once more, poll every file to EOF,
// flush the partial last lines, EOF the parsers so buffered trailing
// records emit, and join them. Every record read has been delivered when it
// returns.
func (fe *FrontEnd) Stop() { fe.halt(true) }

// Abort ends the front end without reading further: pipes closed, parsers
// joined. Sinks must not block for good, or it cannot return.
func (fe *FrontEnd) Abort() { fe.halt(false) }

func (fe *FrontEnd) halt(drain bool) {
	fe.stopOnce.Do(func() {
		fe.drain = drain
		close(fe.stop)
	})
	<-fe.done
}

func (fe *FrontEnd) begin(stage, span, file string) selfobs.Span {
	if fe.cfg.Obs != nil {
		return fe.cfg.Obs.Begin(fe.cfg.Pipe, stage, span, file)
	}
	return selfobs.Begin(fe.cfg.Pipe, stage, span, file)
}

func (fe *FrontEnd) run() {
	defer close(fe.done)
	ticker := time.NewTicker(fe.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-fe.stop:
			if fe.drain {
				fe.scan()
				// Keep polling while bytes still arrive (a producer may race
				// the shutdown), bounded so a still-live writer cannot pin
				// us here forever.
				for pass := 0; pass < 100 && fe.pollAll() > 0; pass++ {
				}
				for _, f := range fe.feeds {
					if !f.closed() {
						f.check(f.tail.Flush(func(b []byte) error { return f.write(b, 1) }))
					}
				}
			}
			for _, f := range fe.feeds {
				f.pw.Close()
			}
			fe.parsers.Wait()
			return
		case <-ticker.C:
			fe.scan()
			// The span is recorded only for cycles that moved bytes; an
			// un-Ended span is discarded for free.
			sp := fe.begin("tail", "poll", "")
			if n := fe.pollAll(); n > 0 {
				sp.End(int64(n), 0)
			}
		}
	}
}

// scan discovers newly appeared streamable files — logs can show up after
// startup (a monitor started late, a tier recovered) — in name order, so
// discovery is deterministic.
func (fe *FrontEnd) scan() {
	entries, err := os.ReadDir(fe.cfg.LogDir)
	if err != nil {
		return // the directory may not exist yet
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(fe.cfg.LogDir, name)
		if fe.known[path] || !Streamable(fe.cfg.Plan, name) ||
			(fe.cfg.Filter != nil && !fe.cfg.Filter(name)) {
			continue
		}
		b, _ := fe.cfg.Plan.Find(name)
		parser, err := parsers.Get(b.Parser)
		if err != nil {
			continue // a plan naming an unknown parser skips the file
		}
		sink, offset := fe.cfg.Open(path, name, b)
		if sink.Deliver == nil {
			continue
		}
		pr, pw := io.Pipe()
		f := &feed{name: name, binding: b, parser: parser, sink: sink,
			tail: NewTailer(path, offset), pw: pw,
			marks: [2]mark{{endOff: offset}, {endOff: offset}}}
		fe.known[path] = true
		fe.feeds = append(fe.feeds, f)
		fe.parsers.Add(1)
		go fe.parse(f, pr, offset)
	}
}

// pollAll polls every open feed once and returns the total new bytes.
func (fe *FrontEnd) pollAll() int {
	total := 0
	for _, f := range fe.feeds {
		if f.closed() {
			continue
		}
		n, err := f.tail.Poll(func(b []byte) error { return f.write(b, 0) })
		total += n
		f.check(err)
	}
	return total
}

// feed is one tailed file. The run goroutine owns the tailer and the write
// end of the pipe, the parser goroutine the read end and the sink; the mark
// is how the first tells the second what offset its bytes end at.
type feed struct {
	name    string
	binding transform.Binding
	parser  parsers.Parser
	sink    Sink
	tail    *Tailer
	pw      *io.PipeWriter

	mu sync.Mutex
	// A mark says: once the parser has consumed written bytes, every complete
	// line of the file below endOff has been through it. A pipe write returns
	// only when its bytes are consumed, so the tailer is at most one write
	// ahead of the parser: the last two marks are all that can be pending.
	marks [2]mark
	// over: the feed is not read again — its sink declined, its parser
	// exited, or reading failed with err.
	over bool
	err  error
}

type mark struct{ written, endOff, rotations int64 }

// write feeds tailed bytes into the parser pipe; it blocks while the parser
// (and transitively whatever its sink waits on) is busy. pad is how many of
// the bytes are not the file's: the newline Flush adds.
func (f *feed) write(b []byte, pad int) error {
	f.mu.Lock()
	f.marks[0] = f.marks[1]
	f.marks[1] = mark{f.marks[0].written + int64(len(b)),
		f.tail.Committed() + int64(len(b)-pad), f.tail.Rotations()}
	f.mu.Unlock()
	_, err := f.pw.Write(b)
	return err
}

func (f *feed) closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.over
}

// check ends the feed on a read error: the parser sees EOF, emits what it
// still buffers, and reports err on its last batch. A closed pipe is the
// parser having exited, which it reports itself.
func (f *feed) check(err error) {
	if err == nil || err == io.ErrClosedPipe {
		return
	}
	f.mu.Lock()
	f.over, f.err = true, err
	f.mu.Unlock()
	f.pw.Close()
}

// parsing is one feed's parser goroutine: the reader the parser pulls from,
// the record and recover callbacks it pushes into, and the batch between
// them.
type parsing struct {
	f        *feed
	pr       *io.PipeReader
	cap      int
	n        int // records the sink took since the last delivery
	consumed int64
	emitted  int64
	quar     int64
	sent     Batch // the last delivery's stamp
}

// Read delivers the batch in hand before each read of the pipe: a read is
// the only place the parser can block, so no record ever waits in a
// half-full batch for bytes that have not been written yet. It is also the
// one place the offset can advance — a parser back for more has emitted
// every record of what it took.
func (ps *parsing) Read(b []byte) (int, error) {
	ps.deliver(true, nil)
	n, err := ps.pr.Read(b)
	ps.consumed += int64(n)
	return n, err
}

func (ps *parsing) record(r *parsers.Record) error {
	if err := ps.f.sink.Record(r); err != nil {
		return err
	}
	ps.n++
	ps.emitted++
	if ps.n == ps.cap {
		ps.deliver(false, nil)
	}
	return nil
}

func (ps *parsing) quarantine(parsers.Malformed) error {
	ps.quar++
	return nil
}

// deliver hands the batch to the sink, if it says anything new. idle means
// the parser holds no bytes it has not turned into records; only then, and
// only if what it has consumed ends where a write did, does the stamp take
// that write's offset.
func (ps *parsing) deliver(idle bool, err error) {
	b := ps.sent
	b.Records, b.Quarantined, b.Err = ps.n, ps.quar, err
	if idle {
		ps.f.mu.Lock()
		for _, m := range ps.f.marks {
			if m.written == ps.consumed {
				b.Offset, b.Rotations = m.endOff, m.rotations
			}
		}
		ps.f.mu.Unlock()
	}
	if b.Records == 0 && err == nil && b.Offset == ps.sent.Offset &&
		b.Rotations == ps.sent.Rotations && b.Quarantined == ps.sent.Quarantined {
		return
	}
	ps.n = 0
	ps.sent = b
	ps.sent.Records = 0
	if !ps.f.sink.Deliver(b) {
		ps.f.mu.Lock()
		ps.f.over = true
		ps.f.mu.Unlock()
	}
}

// parse runs one feed's mScopeParser over its pipe until EOF or death.
func (fe *FrontEnd) parse(f *feed, pr *io.PipeReader, offset int64) {
	defer fe.parsers.Done()
	ps := &parsing{f: f, pr: pr, cap: fe.cfg.BatchCap, sent: Batch{Offset: offset}}
	// One span covers the file's whole parse: its duration is the feed's
	// lifetime (the parser blocks on the pipe between polls), so the
	// interesting fields are the record and quarantine totals.
	sp := fe.begin("parse", "source", f.name)
	var rec parsers.Recover
	if _, ok := f.parser.(parsers.DegradedParser); ok {
		rec = ps.quarantine
	}
	err := f.parser.ParseRecords(ps, f.binding.Instructions, ps.record, rec)
	// Unblock the tailer permanently: nothing reads the pipe again.
	pr.CloseWithError(io.ErrClosedPipe)
	f.mu.Lock()
	f.over = true
	if err == nil {
		err = f.err
	}
	f.mu.Unlock()
	// What the last completed write covered counts even when the parser
	// died inside it: the file is not resumed, and the offset says how far
	// it was read.
	ps.deliver(true, err)
	sp.End(ps.emitted, ps.quar)
}
