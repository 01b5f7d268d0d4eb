package core

import (
	"hash/maphash"
	"sort"
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
type link struct {
	// at maps the hash of a (reqid, seq) key to 1 + the position in stamps
	// of the newest entry with that hash; entries that collide chain
	// through prev. A map keyed by the struct itself takes the runtime's
	// generic hash and equality path on every one of the ~10^5 probes an
	// evidence build makes, which was most of its time.
	seed   maphash.Seed
	at     map[uint64]int32
	stamps []linkStamps
	// minSeq and maxSeq bound the seq of every send: an arrival outside
	// them (a per-query downstream's later visits, under a per-request
	// upstream) has no send to join.
	minSeq, maxSeq int64
	broken         bool // see fail
}

// linkStamps is one key's upstream send and, once the downstream table
// has been read, its arrival (0 until then).
type linkStamps struct {
	id          string
	seq, ds, ua int64
	prev        int32
}

// newLink sizes a link for the rows of its upstream table.
func newLink(sends int) *link {
	return &link{seed: maphash.MakeSeed(), at: make(map[uint64]int32, sends), stamps: make([]linkStamps, 0, sends)}
}

// find returns the entry of a key (nil when it has none), the key's hash
// and the head of that hash's chain.
func (l *link) find(id string, seq int64) (st *linkStamps, h uint64, head int32) {
	h = maphash.String(l.seed, id) ^ uint64(seq)*0x9e3779b97f4a7c15
	head = l.at[h]
	for i := head; i != 0; i = l.stamps[i-1].prev {
		if st := &l.stamps[i-1]; st.id == id && st.seq == seq {
			return st, h, head
		}
	}
	return nil, h, head
}

func (l *link) send(id string, seq, ds int64) {
	st, h, head := l.find(id, seq)
	if st != nil {
		st.ds = ds
		return
	}
	if len(l.stamps) == 0 || seq < l.minSeq {
		l.minSeq = seq
	}
	if len(l.stamps) == 0 || seq > l.maxSeq {
		l.maxSeq = seq
	}
	l.stamps = append(l.stamps, linkStamps{id: id, seq: seq, ds: ds, prev: head})
	l.at[h] = int32(len(l.stamps))
}

func (l *link) arrive(id string, seq, ua int64) {
	if seq < l.minSeq || seq > l.maxSeq {
		return
	}
	if st, _, _ := l.find(id, seq); st != nil {
		st.ua = ua
	}
}

// series buckets the lags by the upstream DS time and keeps the per-bucket
// maximum, so a jitter episode stands out of the baseline. Nil when no
// pair joined.
func (l *link) series(window time.Duration) *mscopedb.Series {
	w := window.Microseconds()
	if l.broken || w <= 0 {
		return nil
	}
	buckets := make(map[int64]float64)
	for _, st := range l.stamps {
		if st.ua == 0 || st.ua < st.ds {
			continue
		}
		b := st.ds - st.ds%w
		if lag := float64(st.ua - st.ds); lag > buckets[b] {
			buckets[b] = lag
		}
	}
	if len(buckets) == 0 {
		return nil
	}
	s := &mscopedb.Series{
		StartMicros: make([]int64, 0, len(buckets)),
		Values:      make([]float64, 0, len(buckets)),
	}
	for b := range buckets {
		s.StartMicros = append(s.StartMicros, b)
	}
	sort.Slice(s.StartMicros, func(i, j int) bool { return s.StartMicros[i] < s.StartMicros[j] })
	for _, b := range s.StartMicros {
		s.Values = append(s.Values, buckets[b])
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

// scanEvents reads one tier's event table once for everything the evidence
// derives from it: its arrivals and departures into the tier's queue, its
// DS stamps as the sends of the link below it (down) and its UA stamps as
// the arrivals of the link above it (up). Either link may be nil. Only the
// columns those need are decoded.
func scanEvents(tbl *mscopedb.Table, q *metrics.Queue, up, down *link) error {
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
	return tbl.Scan(cols, func(ch *mscopedb.Chunk) error {
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
			if up != nil && ua[r] != 0 {
				up.arrive(id, s, ua[r])
			}
		}
		return nil
	})
}
