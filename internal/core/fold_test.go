package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// TestEvidenceFoldEqualsRebuild appends event rows in the order a live
// session can deliver them and checks, after each append, that the fold's
// evidence is BuildEvidence's on the same warehouse: a downstream chunk
// whose sends have not landed, the upstream chunk that joins it, a
// duplicate key on each side, a Widen of the seq column and a tier table
// that appears late. The fold keeps its link across appends and starts
// over at the Widen and at the new table. Sealing every few rows makes
// the fold resume inside segments.
func TestEvidenceFoldEqualsRebuild(t *testing.T) {
	db, err := mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 1_491_004_800_000_000
	const window = 50 * time.Millisecond
	create := func(name string, seq bool) *mscopedb.Table {
		cols := []mscopedb.Column{{Name: "reqid", Type: mscopedb.TString}}
		if seq {
			cols = append(cols, mscopedb.Column{Name: "q", Type: mscopedb.TInt})
		}
		cols = append(cols, mscopedb.Column{Name: "ua", Type: mscopedb.TInt},
			mscopedb.Column{Name: "ud", Type: mscopedb.TInt}, mscopedb.Column{Name: "ds", Type: mscopedb.TInt})
		tbl, err := db.Create(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// rows appends one row per request i in [from, to): arrival at i ms
	// plus at, a 20 ms stay, and a send 5 ms in (none when noSend).
	rows := func(tbl *mscopedb.Table, from, to int, seq any, atUS int64, noSend bool) {
		for i := from; i < to; i++ {
			ua := epoch + int64(i)*1000 + atUS
			ds := ua + 5000
			if noSend {
				ds = 0
			}
			vals := []any{"req-" + strconv.Itoa(i)}
			if seq != nil {
				vals = append(vals, seq)
			}
			if err := tbl.Append(append(vals, ua, ua+20_000, ds)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	fold := NewEvidenceFold(window)
	check := func(step string) *Evidence {
		t.Helper()
		ev, missing, err := fold.Build(db)
		want, wantMissing, wantErr := BuildEvidence(db, window)
		if !errors.Is(err, ErrNoResources) || fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(missing, wantMissing) {
			t.Fatalf("%s: fold %v %v, rebuild %v %v", step, missing, err, wantMissing, wantErr)
		}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("%s: fold\n queues %s\n lags %s\nrebuild\n queues %s\n lags %s",
				step, dumpSeries(ev.Queues), dumpSeries(ev.NetLag), dumpSeries(want.Queues), dumpSeries(want.NetLag))
		}
		return ev
	}
	cjdbc, mysql := create("cjdbc_event", true), create("mysql_event", true)
	check("empty tables")
	// mysql's rows for requests 0–19 arrive 1 ms after cjdbc will have sent
	// them, request 3 a second time 30 ms late; cjdbc's rows land only
	// later.
	rows(mysql, 0, 20, int64(0), 6000, true)
	rows(mysql, 3, 4, int64(0), 36_000, true)
	check("downstream chunk")
	link := fold.links[2]
	rows(cjdbc, 0, 20, int64(0), 0, false)
	if check("upstream chunk").NetLag["mysql"] == nil {
		t.Fatal("the upstream chunk joined no pending arrival")
	}
	// A later row of one key wins, on either side: request 3 arrives on
	// time again, taking its window's largest lag back down to 1 ms, and
	// request 4 is sent again 2 ms sooner.
	rows(mysql, 3, 4, int64(0), 6000, true)
	rows(cjdbc, 4, 5, int64(0), -2000, false)
	check("duplicate keys")
	rows(mysql, 20, 22, int64(0), 6000, true)
	check("after the duplicates")
	if fold.links[2] != link {
		t.Fatal("appends restarted the fold")
	}
	if err := mysql.Widen("q", mscopedb.TString); err != nil {
		t.Fatal(err)
	}
	rows(mysql, 22, 30, "0", 6000, true)
	check("widened seq column")
	if fold.links[2] == link {
		t.Fatal("a schema change did not restart the fold")
	}
	link = fold.links[2]
	rows(cjdbc, 20, 30, int64(0), 0, false)
	// tomcat has no seq column: its requests join cjdbc's first visits only.
	tomcat := create("tomcat_event", false)
	rows(tomcat, 0, 30, nil, -6000, false)
	rows(cjdbc, 0, 5, int64(1), 2500, false)
	ev := check("late tier")
	if fold.links[2] == link || fold.links[1] == nil {
		t.Fatal("a new tier table did not restart the fold")
	}
	if ev.NetLag["cjdbc"] == nil {
		t.Fatal("the late tier joined nothing")
	}
}

// TestEvidenceFoldSpanCountsRowsFolded: the evidence/queues span of a
// Build counts the event rows it folded, not the rows of the tables.
func TestEvidenceFoldSpanCountsRowsFolded(t *testing.T) {
	db := mscopedb.Open()
	tbl, err := db.Create("apache_event", []mscopedb.Column{{Name: "ua", Type: mscopedb.TInt}, {Name: "ud", Type: mscopedb.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	col := selfobs.Enable("fold-test", time.Unix(0, 0))
	defer selfobs.Disable()
	fold := NewEvidenceFold(50 * time.Millisecond)
	var got []int64
	for _, n := range []int{10, 3, 0} {
		for i := range n {
			if err := tbl.Append(int64(i)*1000, int64(i)*1000+500); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := fold.Build(db); !errors.Is(err, ErrNoResources) {
			t.Fatal(err)
		}
	}
	for _, r := range col.Snapshot() {
		if r.Kind == "span" && r.Stage == "evidence" && r.Span == "queues" {
			got = append(got, r.Items)
		}
	}
	if want := []int64{10, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("queues spans counted %v rows, want %v", got, want)
	}
}

// dumpSeries renders each tier's series values.
func dumpSeries(m map[string]*mscopedb.Series) string {
	out := ""
	for _, tier := range Tiers {
		if s := m[tier]; s != nil {
			out += fmt.Sprintf("%s:%v ", tier, s.Values)
		}
	}
	return out
}
