package core

import (
	"hash/maphash"
	"slices"
	"time"

	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// link joins the event rows of two adjacent tiers by (reqid, seq) into an
// inter-tier network-lag series: for every pair present on both sides, the
// lag is the downstream Upstream-Arrival minus the upstream
// Downstream-Sending timestamp — pure wire transit, since UA is stamped on
// message arrival (before any queueing) and DS once the sender holds a
// connection. A per-request upstream joins the seq-0 visit of a per-query
// downstream (its DS marks the first query's send), which samples one lag
// per request — enough for a series. Rows without the stamp are skipped
// (leaf tiers log "-" for DS); of two rows with one key the later wins.
//
// The two sides may be read in any order and in pieces, as EvidenceFold
// reads them: an arrival with no send yet is kept pending (a child tier's
// row usually lands before its parent's), and joins the send when it
// comes. Only an arrival no send can ever match is dropped: a later visit
// (seq > 0) under an upstream with no seq column.
type link struct {
	// at maps the hash of a (reqid, seq) key to 1 + the position in stamps
	// of the newest entry with that hash; entries that collide chain
	// through prev. A map keyed by the struct itself takes the runtime's
	// generic hash and equality path on every one of the ~10^5 probes an
	// evidence build makes, which was most of its time.
	seed   maphash.Seed
	at     map[uint64]int32
	stamps []linkStamps
	seqs   bool // the upstream table has a seq (q) column
	broken bool // see fail
	// lags is the series as it stands: per window of DS time, the largest
	// lag of the entries joined. A stamp that changes after its entry
	// joined may lower a maximum; stale then has series recount them all.
	widthUS int64
	lags    map[int64]float64
	stale   bool
}

// linkStamps is one key's upstream send and downstream arrival, each 0
// until its row has been read.
type linkStamps struct {
	id          string
	seq, ds, ua int64
	prev        int32
}

// newLink sizes a link for the rows of its upstream table, says whether
// that table has a seq column, and sets the window of its series.
func newLink(sends int, seqs bool, window time.Duration) *link {
	return &link{seed: maphash.MakeSeed(), at: make(map[uint64]int32, sends), stamps: make([]linkStamps, 0, sends),
		seqs: seqs, widthUS: window.Microseconds(), lags: make(map[int64]float64)}
}

// joined reports whether both of an entry's stamps are in, the arrival
// not before the send.
func (st *linkStamps) joined() bool { return st.ds != 0 && st.ua != 0 && st.ua >= st.ds }

// entry returns the entry of a key, added empty if it has none.
func (l *link) entry(id string, seq int64) *linkStamps {
	h := maphash.String(l.seed, id) ^ uint64(seq)*0x9e3779b97f4a7c15
	head := l.at[h]
	for i := head; i != 0; i = l.stamps[i-1].prev {
		if st := &l.stamps[i-1]; st.id == id && st.seq == seq {
			return st
		}
	}
	l.stamps = append(l.stamps, linkStamps{id: id, seq: seq, prev: head})
	l.at[h] = int32(len(l.stamps))
	return &l.stamps[len(l.stamps)-1]
}

func (l *link) send(id string, seq, ds int64) {
	st := l.entry(id, seq)
	l.stale = l.stale || st.joined()
	st.ds = ds
	l.join(st)
}

func (l *link) arrive(id string, seq, ua int64) {
	if seq != 0 && !l.seqs {
		return
	}
	st := l.entry(id, seq)
	l.stale = l.stale || st.joined()
	st.ua = ua
	l.join(st)
}

// join counts a joined entry's lag into its window, unless the windows
// are to be recounted anyway.
func (l *link) join(st *linkStamps) {
	if l.stale || l.widthUS <= 0 || !st.joined() {
		return
	}
	b := st.ds - st.ds%l.widthUS
	if lag := float64(st.ua - st.ds); lag > l.lags[b] {
		l.lags[b] = lag
	}
}

// series is the lags bucketed by the upstream DS time, the maximum per
// bucket, so a jitter episode stands out of the baseline. Nil when no
// pair joined.
func (l *link) series() *mscopedb.Series {
	if l.broken || l.widthUS <= 0 {
		return nil
	}
	if l.stale {
		clear(l.lags)
		l.stale = false
		for i := range l.stamps {
			l.join(&l.stamps[i])
		}
	}
	if len(l.lags) == 0 {
		return nil
	}
	s := &mscopedb.Series{
		StartMicros: make([]int64, 0, len(l.lags)),
		Values:      make([]float64, 0, len(l.lags)),
	}
	for b := range l.lags {
		s.StartMicros = append(s.StartMicros, b)
	}
	slices.Sort(s.StartMicros)
	for _, b := range s.StartMicros {
		s.Values = append(s.Values, l.lags[b])
	}
	return s
}

// fail marks a link whose stamp columns a side could not supply; it then
// contributes no series, like a link with no table. Nil-safe.
func (l *link) fail() {
	if l != nil {
		l.broken = true
	}
}

// scanEvents reads the rows of one tier's event table from row from on,
// once for everything the evidence derives from them: their arrivals and
// departures into the tier's queue, their DS stamps as the sends of the
// link below it (down) and their UA stamps as the arrivals of the link
// above it (up). Either link may be nil. Only the columns those need are
// decoded. It returns the number of rows read.
func scanEvents(tbl *mscopedb.Table, from int, q *metrics.Queue, up, down *link) (int, error) {
	cols := []string{"ua", "ud"}
	pos := map[string]int{} // where the link columns the table has sit in cols
	if ci := tbl.ColIndex("reqid"); (up != nil || down != nil) && ci >= 0 && tbl.Columns()[ci].Type == mscopedb.TString {
		for _, name := range []string{"reqid", "q", "ds"} {
			if tbl.ColIndex(name) >= 0 {
				pos[name] = len(cols)
				cols = append(cols, name)
			}
		}
	} else {
		up.fail()
		down.fail()
	}
	if _, ok := pos["ds"]; !ok {
		down.fail()
	}
	read := 0
	err := tbl.ScanFrom(from, cols, func(ch *mscopedb.Chunk) error {
		read += ch.Rows()
		ua, err := ch.Micros(0)
		if err != nil {
			return err
		}
		ud, err := ch.Micros(1)
		if err != nil {
			return err
		}
		q.Add(ua, ud)
		if (up == nil || up.broken) && (down == nil || down.broken) {
			return nil
		}
		var seq, ds []int64
		if p, ok := pos["q"]; ok {
			if seq, err = ch.Micros(p); err != nil {
				up.fail()
				down.fail()
				return nil
			}
		}
		if down != nil && !down.broken {
			if ds, err = ch.Micros(pos["ds"]); err != nil {
				down.fail()
			}
		}
		for r, id := range ch.Strs(pos["reqid"]) {
			if id == "" {
				continue
			}
			s := int64(0)
			if seq != nil {
				s = seq[r]
			}
			if ds != nil && ds[r] != 0 {
				down.send(id, s, ds[r])
			}
			if up != nil && !up.broken && ua[r] != 0 {
				up.arrive(id, s, ua[r])
			}
		}
		return nil
	})
	return read, err
}
