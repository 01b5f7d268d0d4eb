package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/serve"
)

// Request kinds of the query mix, with their share of the sequence in
// percent. The shares put the median among the scan and aggregate requests
// and the 95th percentile among the requests that rebuild every trace or
// diagnose the whole warehouse.
const (
	kWindowPruned = "window_pruned"
	kWindowFull   = "window_full"
	kQuery        = "query"
	kTrace        = "trace"
	kFlamegraph   = "flamegraph"
	kDiagnosis    = "diagnosis"
	kTraces       = "traces"
)

var queryMix = []struct {
	kind  string
	share int
}{
	{kWindowPruned, 40}, {kWindowFull, 20}, {kQuery, 15}, {kTrace, 15},
	{kFlamegraph, 4}, {kDiagnosis, 3}, {kTraces, 3},
}

// mixLength is how many requests the seeded sequence holds. A run issues
// the whole sequence as many times as its time allows and never part of
// it, so the percentiles of every run are taken over the same request
// shapes in the same proportions.
const mixLength = 400

// probeEvery is how many requests pass between two probes of the machine's
// speed.
const probeEvery = 50

// hotTraces is the size of the set /api/trace draws its request IDs from.
const hotTraces = 8

// windowTarget is a (table, time column, value column) triple a window
// request aggregates over.
type windowTarget struct{ table, timeCol, value string }

// prunedTargets are the event tables that carry a time column (the
// resource tables are a few hundred rows and never seal a segment, so they
// would exercise neither scans nor pruning). fullTargets are the two of
// them that are the same size: with the MQL statements below, which scan
// the same two tables, they form one band of similar cost that a third of
// the requests fall in and the median request sits well inside, so the
// median does not hop between request kinds from run to run.
var (
	prunedTargets = []windowTarget{
		{"apache_event", "ltime", "rt_us"},
		{"tomcat_event", "ltime", "ud"},
		{"mysql_event", "time", "query_time"},
	}
	fullTargets = prunedTargets[:2]
)

var windowFns = []string{"max", "avg", "p99", "count"}

// mqlQueries are the filter + order + limit statements of the mix: the
// latest requests that arrived after 5, 10 and 15 s of the trial.
var mqlQueries = func() []string {
	var qs []string
	for _, table := range []string{"apache_event", "tomcat_event"} {
		for _, after := range []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second} {
			qs = append(qs, fmt.Sprintf("SELECT reqid, ua FROM %s WHERE ua > %d ORDER BY ua DESC LIMIT 20",
				table, eventEpoch().Add(after).UnixMicro()))
		}
	}
	return qs
}()

// request is one GET of the mix.
type request struct {
	Kind string
	URL  string
}

// newRequestMaker returns a function that makes one request of a given
// kind. Which variant of a kind comes next (table and aggregate, MQL
// statement, hot request ID, limit) goes round-robin, so every seed issues
// the same multiset of request shapes and only their order, the hot IDs and
// the slices differ. The pruned windows are random one-second slices of the
// trial (no two alike, so the segment decode cache never helps and zone-map
// pruning always has work); the trace requests draw from a hot set small
// enough to fit any cache.
func newRequestMaker(rng *rand.Rand, fx *fixture) (func(kind string) request, error) {
	apache, err := fx.ref.db.Table("apache_event")
	if err != nil {
		return nil, err
	}
	reqidCol := apache.ColIndex("reqid")
	if reqidCol < 0 || apache.Rows() == 0 {
		return nil, fmt.Errorf("query mix: apache_event has no reqid to trace")
	}
	hot := make([]string, hotTraces)
	for i := range hot {
		hot[i] = apache.Str(reqidCol, rng.Intn(apache.Rows()))
	}
	made := make(map[string]int) // requests made so far, by kind
	window := func(turn int, full bool) string {
		targets := prunedTargets
		if full {
			targets = fullTargets
		}
		t := targets[turn%len(targets)]
		fn := windowFns[turn/len(targets)%len(windowFns)]
		v := url.Values{"table": {t.table}, "time": {t.timeCol}, "value": {t.value},
			"fn": {fn}, "window": {detectWindow.String()}}
		if !full {
			span := fx.spec.Sim - time.Second
			from := eventEpoch().UnixMicro() + rng.Int63n(span.Microseconds())
			v.Set("from", fmt.Sprint(from))
			v.Set("to", fmt.Sprint(from+time.Second.Microseconds()))
		}
		return "/api/window?" + v.Encode()
	}
	return func(kind string) request {
		turn := made[kind]
		made[kind]++
		r := request{Kind: kind}
		switch kind {
		case kWindowPruned:
			r.URL = window(turn, false)
		case kWindowFull:
			r.URL = window(turn, true)
		case kQuery:
			r.URL = "/api/query?" + url.Values{"q": {mqlQueries[turn%len(mqlQueries)]}}.Encode()
		case kTrace:
			r.URL = "/api/trace/" + hot[turn%len(hot)]
		case kFlamegraph:
			r.URL = "/flamegraph.svg"
		case kDiagnosis:
			r.URL = "/api/diagnosis"
		case kTraces:
			r.URL = fmt.Sprintf("/api/traces?limit=%d", []int{10, 50}[turn%2])
		}
		return r
	}, nil
}

// mixSequence makes n requests in exactly the proportions of queryMix and
// shuffles them.
func mixSequence(rng *rand.Rand, mk func(kind string) request, n int) []request {
	reqs := make([]request, 0, n)
	for _, m := range queryMix {
		for i := 0; i < m.share*n/100; i++ {
			reqs = append(reqs, mk(m.kind))
		}
	}
	for len(reqs) < n { // n not a multiple of 100: top up with the commonest kind
		reqs = append(reqs, mk(queryMix[0].kind))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// answer is what a response is compared by: status, length and an FNV-1a
// digest of the body, which together stand in for byte equality.
type answer struct {
	Code   int
	Len    int
	Digest uint64
}

// capture is the ResponseWriter of the in-process client: no sockets, the
// handler writes straight into the digest.
type capture struct {
	hdr  http.Header
	code int
	n    int
	h    hash.Hash64
}

func (c *capture) Header() http.Header { return c.hdr }
func (c *capture) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}
func (c *capture) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.n += len(p)
	return c.h.Write(p)
}

// get issues one request against h and returns the answer.
func get(h http.Handler, u string) (answer, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return answer{}, err
	}
	c := &capture{hdr: make(http.Header), h: fnv.New64a()}
	h.ServeHTTP(c, req)
	c.WriteHeader(http.StatusOK)
	return answer{Code: c.code, Len: c.n, Digest: c.h.Sum64()}, nil
}

// served is one timed request of the mix.
type served struct {
	req request
	ans answer
	dur time.Duration
}

// serveMix opens the committed warehouse at whDir and issues reqs in order
// from one in-process client: once through when budget is 0, else whole
// passes for as long as another one, taken to last as long as the slowest
// so far, still fits the budget. It returns what was served, and the wall
// time and mallocs the serving cost.
func serveMix(whDir string, reqs []request, budget time.Duration, speed *speedometer,
	timed func(kind string, fn func()) time.Duration) ([]served, time.Duration, uint64, error) {
	db, err := mscopedb.OpenDir(whDir, mscopedb.StoreOptions{})
	if err != nil {
		return nil, 0, 0, err
	}
	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		return nil, 0, 0, err
	}
	h := srv.Handler()
	var out []served
	m := startMeter()
	_, err = repLoop(budget, 1, nil, func(int) error {
		for i, r := range reqs {
			if i%probeEvery == 0 {
				speed.probe()
			}
			var ans answer
			var gerr error
			dur := timed("serve."+r.Kind, func() { ans, gerr = get(h, r.URL) })
			if gerr != nil {
				return gerr
			}
			out = append(out, served{req: r, ans: ans, dur: dur})
		}
		return nil
	})
	wall, mallocs, _ := m.stop()
	if speed != nil { // the probes are the harness's, not the service's
		wall -= speed.spent
		mallocs -= speed.mallocs
	}
	return out, wall, mallocs, err
}

// checkAnswers requires every served response to be a 200 whose body is
// byte-equal to the in-memory reference's answer to the same request. The
// reference answers each distinct URL once.
func checkAnswers(t *tally, fx *fixture, got []served) error {
	refSrv, err := serve.New(serve.Config{DB: fx.ref.db})
	if err != nil {
		return err
	}
	want := make(map[string]answer)
	for _, s := range got {
		w, known := want[s.req.URL]
		if !known {
			if w, err = get(refSrv.Handler(), s.req.URL); err != nil {
				return err
			}
			want[s.req.URL] = w
		}
		t.check(s.ans.Code == http.StatusOK && s.ans == w,
			"%s: GET %s: status %d, %d bytes, digest %x; reference status %d, %d bytes, digest %x",
			wlQuery, s.req.URL, s.ans.Code, s.ans.Len, s.ans.Digest, w.Code, w.Len, w.Digest)
	}
	return nil
}

// verifyShare is the part of query-mix's time kept back for answering the
// served requests again from the reference.
const verifyShare = 0.15

// untimed is serveMix's timer when no spans are recorded.
func untimed(_ string, fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// runQuery is query-mix: the `mscope serve` user. The committed
// corpus-bulk warehouse is reopened from disk and one closed-loop client
// calls the service's handler in-process, no sockets.
func runQuery(fx *fixture, p params) (*runOut, error) {
	out := newRunOut()
	rng := rand.New(rand.NewSource(p.seed))
	mk, err := newRequestMaker(rng, fx)
	if err != nil {
		return out, err
	}
	reqs := mixSequence(rng, mk, mixLength)
	loop := time.Duration(float64(p.budget()) * (1 - verifyShare))
	if p.quick {
		reqs = reqs[:60]
	}
	got, wall, mallocs, err := serveMix(fx.whDir, reqs, loop, p.speed, untimed)
	if err != nil {
		return out, err
	}
	runtime.GC()
	if err := checkAnswers(&out.tally, fx, got); err != nil {
		return out, err
	}
	lat := make([]float64, len(got))
	for i, s := range got {
		lat[i] = ms(s.dur)
	}
	rows := fx.ref.rows(func(string) bool { return true })
	one := func(name string, v float64) {
		out.Metrics[name] = summary{Value: v, Unit: endToEndUnits[name], Q1: v, Q3: v, N: 1}
	}
	one(mThroughput, float64(len(got))/wall.Seconds())
	one(mAllocs, float64(mallocs)/float64(len(got)))
	one(mStored, float64(fx.whBytes)/float64(rows))
	fillLatency(out, lat)
	out.Info["requests"] = float64(len(got))
	out.Info["rows"] = float64(rows)
	return out, nil
}
