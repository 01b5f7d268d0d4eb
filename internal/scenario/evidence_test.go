package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// The evidence oracle: core.BuildEvidence as it was before it read each
// table once — a per-cell row loop per series, a queue sweep over boxed
// arrival/departure events, a separate selection per resource metric, and
// a lag join through two maps keyed by a concatenated "reqid#seq" string.
// TestEvidenceMatchesRowLoopOracle holds the projected single-pass
// construction to it, series for series and value for value.

func oracleMicros(tbl *mscopedb.Table, cols []mscopedb.Column, ci, row int) (int64, error) {
	switch cols[ci].Type {
	case mscopedb.TInt:
		return tbl.Int(ci, row), nil
	case mscopedb.TString:
		s := tbl.Str(ci, row)
		if s == "-" || s == "" {
			return 0, nil
		}
		return strconv.ParseInt(s, 10, 64)
	}
	return 0, fmt.Errorf("%s.%s: unsupported type", tbl.Name(), cols[ci].Name)
}

func oracleQueue(tbl *mscopedb.Table, step time.Duration) *mscopedb.Series {
	uaCI, udCI := tbl.ColIndex("ua"), tbl.ColIndex("ud")
	type ev struct {
		at int64
		d  int
	}
	var evs []ev
	for r := 0; r < tbl.Rows(); r++ {
		evs = append(evs, ev{tbl.Int(uaCI, r), +1}, ev{tbl.Int(udCI, r), -1})
	}
	s := &mscopedb.Series{}
	if len(evs) == 0 {
		return s
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d > evs[j].d
	})
	stepUS := step.Microseconds()
	lo, hi := evs[0].at, evs[len(evs)-1].at
	lo -= ((lo % stepUS) + stepUS) % stepUS
	cur, k := 0, 0
	emit := func(at int64) {
		for k < len(evs) && evs[k].at <= at {
			cur += evs[k].d
			k++
		}
		s.StartMicros = append(s.StartMicros, at)
		s.Values = append(s.Values, float64(cur))
	}
	at := lo
	for ; at <= hi; at += stepUS {
		emit(at)
	}
	if at-stepUS != hi {
		emit(hi)
	}
	return s
}

func oracleStamps(tbl *mscopedb.Table, col string) (map[string]int64, error) {
	reqCI, tsCI, qCI := tbl.ColIndex("reqid"), tbl.ColIndex(col), tbl.ColIndex("q")
	if reqCI < 0 || tsCI < 0 {
		return nil, fmt.Errorf("%s lacks reqid/%s", tbl.Name(), col)
	}
	cols := tbl.Columns()
	out := make(map[string]int64)
	for r := 0; r < tbl.Rows(); r++ {
		id := tbl.Str(reqCI, r)
		if id == "" {
			continue
		}
		ts, err := oracleMicros(tbl, cols, tsCI, r)
		if err != nil {
			return nil, err
		}
		if ts == 0 {
			continue
		}
		seq := int64(0)
		if qCI >= 0 {
			if seq, err = oracleMicros(tbl, cols, qCI, r); err != nil {
				return nil, err
			}
		}
		out[id+"#"+strconv.FormatInt(seq, 10)] = ts
	}
	return out, nil
}

func oracleNetLag(db *mscopedb.DB, up, down string, window time.Duration) *mscopedb.Series {
	upT, _ := db.Table(up + "_event")
	downT, _ := db.Table(down + "_event")
	sends, err := oracleStamps(upT, "ds")
	if err != nil {
		return nil
	}
	arrivals, err := oracleStamps(downT, "ua")
	if err != nil {
		return nil
	}
	w := window.Microseconds()
	buckets := make(map[int64]float64)
	for key, ds := range sends {
		ua, ok := arrivals[key]
		if !ok || ds == 0 || ua < ds {
			continue
		}
		b := ds - ds%w
		if lag := float64(ua - ds); lag > buckets[b] {
			buckets[b] = lag
		}
	}
	if len(buckets) == 0 {
		return nil
	}
	s := &mscopedb.Series{}
	for b := range buckets {
		s.StartMicros = append(s.StartMicros, b)
	}
	sort.Slice(s.StartMicros, func(i, j int) bool { return s.StartMicros[i] < s.StartMicros[j] })
	for _, b := range s.StartMicros {
		s.Values = append(s.Values, buckets[b])
	}
	return s
}

// oracleEvidence assembles what BuildEvidence must return for db.
func oracleEvidence(t *testing.T, db *mscopedb.DB, window time.Duration) *core.Evidence {
	t.Helper()
	ev := &core.Evidence{
		Queues: map[string]*mscopedb.Series{}, Dirty: map[string]*mscopedb.Series{},
		Freq: map[string]*mscopedb.Series{}, DiskRead: map[string]*mscopedb.Series{},
		DiskWrite: map[string]*mscopedb.Series{}, NetLag: map[string]*mscopedb.Series{},
	}
	for _, tier := range core.Tiers {
		if tbl, err := db.Table(tier + "_event"); err == nil {
			ev.Queues[tier] = oracleQueue(tbl, window)
		}
	}
	for _, tier := range core.Tiers {
		tbl, err := db.Table(tier + "_collectlcsv")
		if err != nil {
			continue
		}
		series := func(col string, fn mscopedb.AggFn) *mscopedb.Series {
			res, err := tbl.Select().Rows() // a selection per metric, as it was
			if err != nil {
				t.Fatal(err)
			}
			s, err := res.WindowAgg("ts", window, col, fn)
			if err != nil {
				return nil
			}
			return s
		}
		user, sys := series("cpu_user", mscopedb.AggAvg), series("cpu_sys", mscopedb.AggAvg)
		cpu := &mscopedb.Series{}
		for i, at := range user.StartMicros { // same grid: both come from one table
			cpu.StartMicros = append(cpu.StartMicros, at)
			cpu.Values = append(cpu.Values, user.Values[i]+sys.Values[i])
		}
		ev.Candidates = append(ev.Candidates,
			core.ResourceCandidate{Name: tier + " disk", Tier: tier, Kind: core.CauseDiskIO, Series: series("dsk_util", mscopedb.AggMax)},
			core.ResourceCandidate{Name: tier + " cpu", Tier: tier, Kind: core.CauseCPU, Series: cpu})
		for col, into := range map[string]map[string]*mscopedb.Series{
			"mem_dirty": ev.Dirty, "cpu_mhz": ev.Freq, "dsk_readkbtot": ev.DiskRead, "dsk_writekbtot": ev.DiskWrite,
		} {
			fn := map[string]mscopedb.AggFn{"mem_dirty": mscopedb.AggAvg, "cpu_mhz": mscopedb.AggMin,
				"dsk_readkbtot": mscopedb.AggMax, "dsk_writekbtot": mscopedb.AggMax}[col]
			if s := series(col, fn); s != nil {
				into[tier] = s
			}
		}
	}
	for i := 0; i+1 < len(core.Tiers); i++ {
		up, down := core.Tiers[i], core.Tiers[i+1]
		if db.HasTable(up+"_event") && db.HasTable(down+"_event") {
			if lag := oracleNetLag(db, up, down, window); lag != nil {
				ev.NetLag[down] = lag
			}
		}
	}
	return ev
}

// duplicateKeys appends, to the per-query tiers, a second row for an
// existing (reqid, q) with other stamps — the later row must win the lag
// join, as it always has — and a row whose arrival and departure share an
// instant with another row's, which the queue sweep orders arrival first.
func duplicateKeys(t *testing.T, db *mscopedb.DB) {
	t.Helper()
	for _, name := range []string{"cjdbc_event", "mysql_event"} {
		tbl, err := db.Table(name)
		if err != nil || tbl.Rows() < 10 {
			continue
		}
		res, err := tbl.Select().Limit(10).Rows()
		if err != nil {
			t.Fatal(err)
		}
		cols := tbl.Columns()
		cells := make([][]string, len(cols))
		for ci, c := range cols {
			if cells[ci], err = res.Render(c.Name); err != nil {
				t.Fatal(err)
			}
		}
		uaCI, udCI := tbl.ColIndex("ua"), tbl.ColIndex("ud")
		for _, src := range []int{3, 7} {
			row := make([]string, len(cols))
			for ci := range cols {
				row[ci] = cells[ci][src]
			}
			ua, _ := strconv.ParseInt(row[uaCI], 10, 64)
			row[uaCI] = strconv.FormatInt(ua+777, 10) // same key, later arrival
			if src == 7 {
				row[uaCI], row[udCI] = cells[udCI][3], cells[udCI][3] // zero-length visit at row 3's departure
			}
			if err := tbl.AppendStrings(row); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEvidenceMatchesRowLoopOracle(t *testing.T) {
	work := t.TempDir()
	for _, s := range core.Scenarios() {
		s := s
		s.Users = 40 // the structure of the evidence, not the verdict, is under test
		t.Run(s.Name, func(t *testing.T) {
			srcDir := stageTrial(t, &s, work)
			db := mscopedb.Open()
			mustIngest(t, db, srcDir, t.TempDir())
			duplicateKeys(t, db)
			got, _, err := core.BuildEvidence(db, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleEvidence(t, db, 50*time.Millisecond)
			if !reflect.DeepEqual(got.Candidates, want.Candidates) {
				t.Error("resource candidates differ")
			}
			for name, pair := range map[string][2]map[string]*mscopedb.Series{
				"queues": {got.Queues, want.Queues}, "dirty": {got.Dirty, want.Dirty}, "freq": {got.Freq, want.Freq},
				"disk read": {got.DiskRead, want.DiskRead}, "disk write": {got.DiskWrite, want.DiskWrite},
				"net lag": {got.NetLag, want.NetLag},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Errorf("%s series differ: tiers %v, want %v", name, keysOf(pair[0]), keysOf(pair[1]))
				}
			}
			if len(want.NetLag) == 0 && len(s.DeleteTiers) == 0 {
				t.Error("the oracle joined no lag series: the comparison is vacuous")
			}
		})
	}
}

func keysOf(m map[string]*mscopedb.Series) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
