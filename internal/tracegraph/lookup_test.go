package tracegraph_test

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

var eventTables = []string{"apache_event", "tomcat_event", "cjdbc_event", "mysql_event"}

// dbioLogs runs the disk-IO trial of the catalogue once and returns its
// log directory.
func dbioLogs(t *testing.T) string {
	t.Helper()
	spec, ok := core.ScenarioByName("dbio")
	if !ok {
		t.Fatal("no dbio scenario")
	}
	small := *spec
	small.Users = 60
	logs := filepath.Join(t.TempDir(), "logs")
	cfg, err := small.Build(logs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	return logs
}

func ingest(t *testing.T, db *mscopedb.DB, logs string) *mscopedb.DB {
	t.Helper()
	if _, err := transform.IngestDir(db, logs, t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	return db
}

// slowestFirst is the ordering /api/traces has always had, applied to a
// whole reconstruction: the oracle of Slowest.
func slowestFirst(traces map[string]*tracegraph.Trace) []*tracegraph.Trace {
	out := make([]*tracegraph.Trace, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].ResponseTime(), out[j].ResponseTime()
		if ri != rj {
			return ri > rj
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

// checkAgainstBuild holds Lookup, for every request ID of the warehouse,
// and Slowest, at several depths, to the whole-warehouse reconstruction.
func checkAgainstBuild(t *testing.T, db *mscopedb.DB) {
	t.Helper()
	want, _, err := tracegraph.BuildPartial(db, eventTables)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("only %d traces to compare", len(want))
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	step := 1
	if testing.Short() {
		step = 17 // every ID is still checked by the all-at-once lookup below
	}
	for i := 0; i < len(ids); i += step { // one request at a time: the /api/trace path
		id := ids[i]
		got, err := tracegraph.Lookup(db, eventTables, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[id], want[id]) {
			t.Fatalf("lookup of %s = %+v, build has %+v", id, got[id], want[id])
		}
	}
	all, err := tracegraph.Lookup(db, eventTables, append(ids, "", "no-such-request")...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("lookup of every ID at once differs from the build (%d traces, want %d)", len(all), len(want))
	}
	for _, miss := range [][]string{{"no-such-request"}, {""}, nil} {
		got, err := tracegraph.Lookup(db, eventTables, miss...)
		if err != nil || len(got) != 0 {
			t.Fatalf("lookup of %q found %d traces (err %v)", miss, len(got), err)
		}
	}
	ordered := slowestFirst(want)
	for _, n := range []int{1, 7, 50, len(ordered), len(ordered) + 5} {
		got, err := tracegraph.Slowest(db, eventTables, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ordered[:min(n, len(ordered))]) {
			t.Fatalf("slowest %d differ from the head of the sorted build", n)
		}
	}
}

// TestLookupMatchesBuild: the one-request lookup and the slowest-N ranking
// equal the whole-warehouse reconstruction on an in-memory warehouse, a
// spilled one with a non-empty tail, the same after compaction, and with
// one tier's event table absent. Requests that never completed at the
// front tier, and requests tied on response time, are planted first.
func TestLookupMatchesBuild(t *testing.T) {
	logs := dbioLogs(t)
	plant := func(db *mscopedb.DB) {
		tomcat, err := db.Table("tomcat_event")
		if err != nil {
			t.Fatal(err)
		}
		// ltime, thread, reqid, uri, ua, ud, ds, dr: three requests apache
		// never logged — one the slowest of all, two tied behind it.
		for _, row := range [][]string{
			{"2017-04-01T00:00:30Z", "t-1", "zz-orphan", "/x", "1491004830000000", "1491004839000000", "1491004831000000", "1491004838000000"},
			{"2017-04-01T00:00:31Z", "t-2", "tie-b", "/x", "1491004831000000", "1491004835000000", "-", "-"},
			{"2017-04-01T00:00:32Z", "t-3", "tie-a", "/x", "1491004832000000", "1491004836000000", "-", "-"},
		} {
			if err := tomcat.AppendStrings(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		db := ingest(t, mscopedb.Open(), logs)
		plant(db)
		checkAgainstBuild(t, db)
		if got, _ := tracegraph.Slowest(db, eventTables, 3); got[0].ReqID != "zz-orphan" || got[1].ReqID != "tie-a" || got[2].ReqID != "tie-b" {
			t.Fatalf("planted requests rank %s, %s, %s", got[0].ReqID, got[1].ReqID, got[2].ReqID)
		}
	})
	t.Run("spilled", func(t *testing.T) {
		db, err := mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: 500, CompactMinSegs: 3})
		if err != nil {
			t.Fatal(err)
		}
		ingest(t, db, logs)
		plant(db)
		tomcat, _ := db.Table("tomcat_event")
		if tomcat.Segments() < 3 || tomcat.SealedRows() == tomcat.Rows() {
			t.Fatalf("want segments and a tail: %d segments, %d of %d rows sealed", tomcat.Segments(), tomcat.SealedRows(), tomcat.Rows())
		}
		checkAgainstBuild(t, db)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		checkAgainstBuild(t, db)
		if err := db.Drop("cjdbc_event"); err != nil {
			t.Fatal(err)
		}
		checkAgainstBuild(t, db) // partial traces: MissingTiers must match too
	})
}
