package serve

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// fuzzWarehouses is one small event table, in memory and spilled into
// segments plus a tail.
func fuzzWarehouses(f *testing.F) []*mscopedb.DB {
	spilled, err := mscopedb.OpenDir(f.TempDir(), mscopedb.StoreOptions{SealRows: 16})
	if err != nil {
		f.Fatal(err)
	}
	dbs := []*mscopedb.DB{mscopedb.Open(), spilled}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, db := range dbs {
		tbl, err := db.Create("apache_event", []mscopedb.Column{
			{Name: "ltime", Type: mscopedb.TTime},
			{Name: "method", Type: mscopedb.TString},
			{Name: "rt_us", Type: mscopedb.TInt},
			{Name: "ud", Type: mscopedb.TInt},
			{Name: "load", Type: mscopedb.TFloat},
		})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ts := base.Add(time.Duration(i) * 7 * time.Millisecond)
			if err := tbl.Append(ts, []string{"GET", "POST"}[i%2], int64(900+i*13), ts.UnixMicro()+int64(i), float64(i)/3); err != nil {
				f.Fatal(err)
			}
		}
	}
	return dbs
}

// FuzzServeWindowParams: whatever /api/window is asked, the answer is a
// 200, a 400 or a 404 — never a 5xx, never a panic, never a grid the size
// of the request's imagination.
func FuzzServeWindowParams(f *testing.F) {
	epoch := fmt.Sprint(time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC).UnixMicro())
	for _, s := range [][8]string{
		{"apache_event", "rt_us", "ltime", "p99", "50ms", "", "", ""},
		{"apache_event", "ud", "ud", "max", "1ns", "", "", ""},
		{"apache_event", "ud", "ud", "avg", "1us", "", "", ""},
		{"apache_event", "rt_us", "ud", "count", "10ms", "9", "3", ""},
		{"apache_event", "rt_us", "ud", "sum", "10ms", epoch, epoch, ""},
		{"apache_event", "load", "ltime", "min", "2562047h", "-9223372036854775808", "9223372036854775807", "method"},
		{"apache_event", "method", "rt_us", "", "1h", "", "", "rt_us"},
		{"no_such", "rt_us", "", "avg", "", "", "", ""},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	var servers []*Server
	for _, db := range fuzzWarehouses(f) {
		s, err := New(Config{DB: db})
		if err != nil {
			f.Fatal(err)
		}
		servers = append(servers, s)
	}
	f.Fuzz(func(t *testing.T, table, value, timeCol, fn, window, from, to, by string) {
		q := url.Values{}
		for k, v := range map[string]string{"table": table, "value": value, "time": timeCol,
			"fn": fn, "window": window, "from": from, "to": to, "by": by} {
			if v != "" {
				q.Set(k, v)
			}
		}
		for _, s := range servers {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/window?"+q.Encode(), nil))
			if rec.Code != 200 && rec.Code != 400 && rec.Code != 404 {
				t.Fatalf("GET /api/window?%s: status %d: %s", q.Encode(), rec.Code, rec.Body.String())
			}
		}
	})
}
