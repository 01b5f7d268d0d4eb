package mscopedb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func windowTable(t *testing.T, rows int, spanUS int64, seed int64) *Table {
	t.Helper()
	tbl, err := NewTable("wa_event", []Column{
		{Name: "ts", Type: TInt},
		{Name: "v", Type: TFloat},
		{Name: "tier", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tiers := []string{"apache", "tomcat", "cjdbc", "mysql"}
	for i := 0; i < rows; i++ {
		ts := rng.Int63n(spanUS)
		if err := tbl.Append(ts, rng.Float64()*1000, tiers[rng.Intn(len(tiers))]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestWindowAggDenseMatchesSparse pins the vectorized flat-grid path to
// the reference per-bucket-slice semantics on every aggregate function.
func TestWindowAggDenseMatchesSparse(t *testing.T) {
	tbl := windowTable(t, 5000, 2_000_000, 7)
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	w := 50 * time.Millisecond
	for _, fn := range []AggFn{AggAvg, AggMax, AggMin, AggSum, AggCount, AggP99} {
		got, err := res.WindowAgg("ts", w, "v", fn)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		want := referenceWindowAgg(res, "ts", w.Microseconds(), "v", fn)
		if len(got.Values) != len(want.Values) {
			t.Fatalf("%v: %d windows, want %d", fn, len(got.Values), len(want.Values))
		}
		for i := range got.Values {
			if got.StartMicros[i] != want.StartMicros[i] || got.Values[i] != want.Values[i] {
				t.Errorf("%v window %d: (%d, %g), want (%d, %g)",
					fn, i, got.StartMicros[i], got.Values[i], want.StartMicros[i], want.Values[i])
			}
		}
	}
}

// TestWindowAggTimeColumn windows a resource table's gauge by its
// time-typed ts column, the way the diagnosis reads a collectl table.
func TestWindowAggTimeColumn(t *testing.T) {
	tbl, err := NewTable("mysql_collectlcsv", []Column{
		{Name: "ts", Type: TTime},
		{Name: "dsk_util", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		util := 10.0
		if i >= 10 && i < 14 {
			util = 99.0
		}
		if err := tbl.Append(base.Add(time.Duration(i)*50*time.Millisecond), util); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.WindowAgg("ts", 100*time.Millisecond, "dsk_util", AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 10 {
		t.Fatalf("windows %d", len(s.Values))
	}
	if s.Values[5] != 99 || s.Values[0] != 10 {
		t.Fatalf("values %+v", s.Values)
	}
}

// referenceWindowAgg is the pre-vectorization per-bucket-slice
// implementation, kept as the differential oracle for the flat-grid path:
// a map of bucket floors to the values of the rows in them, numeric cells
// coerced to float64. It reads an in-memory table's columns.
func referenceWindowAgg(r *Result, timeCol string, w int64, valCol string, fn AggFn) *Series {
	tci, vci := r.t.ColIndex(timeCol), r.t.ColIndex(valCol)
	buckets := make(map[int64][]float64)
	var lo, hi int64
	first := true
	for _, row := range r.idx {
		ts := r.t.data[tci].Ints[row]
		if r.t.cols[tci].Type == TTime {
			ts = r.t.data[tci].Times[row]
		}
		b := ts - mod(ts, w)
		var v float64
		switch d := &r.t.data[vci]; {
		case fn == AggCount:
		case r.t.cols[vci].Type == TInt:
			v = float64(d.Ints[row])
		case r.t.cols[vci].Type == TTime:
			v = float64(d.Times[row])
		default:
			v = d.Floats[row]
		}
		buckets[b] = append(buckets[b], v)
		if first || b < lo {
			lo = b
		}
		if first || b > hi {
			hi = b
		}
		first = false
	}
	s := Series{StartMicros: []int64{}, Values: []float64{}}
	for b := lo; !first && b <= hi; b += w {
		s.StartMicros = append(s.StartMicros, b)
		s.Values = append(s.Values, aggregate(fn, buckets[b]))
	}
	return &s
}

// TestWindowAggGapWindows checks empty windows between populated
// buckets are materialized on the grid and zero-filled.
func TestWindowAggGapWindows(t *testing.T) {
	tbl, err := NewTable("gap_event", []Column{
		{Name: "ts", Type: TInt},
		{Name: "v", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two rows 10s apart on a 50ms grid: 201 windows, 199 of them empty.
	for _, ts := range []int64{0, 10_000_000} {
		if err := tbl.Append(ts, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.WindowAgg("ts", 50*time.Millisecond, "v", AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 201 {
		t.Fatalf("got %d windows, want 201", len(s.Values))
	}
	if s.Values[0] != 1.0 || s.Values[200] != 1.0 {
		t.Fatalf("endpoint windows = %g, %g, want 1, 1", s.Values[0], s.Values[200])
	}
	for i := 1; i < 200; i++ {
		if s.Values[i] != 0 {
			t.Fatalf("empty window %d holds %g, want 0", i, s.Values[i])
		}
	}
}

func TestWindowAggEdgeCases(t *testing.T) {
	tbl, err := NewTable("edge_event", []Column{
		{Name: "ts", Type: TInt},
		{Name: "v", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	// Empty selection yields an empty series, not an error.
	s, err := res.WindowAgg("ts", time.Millisecond, "v", AggMax)
	if err != nil || len(s.Values) != 0 {
		t.Fatalf("empty selection: series %v err %v, want empty and nil", s.Values, err)
	}
	// Single row yields a single window holding that row's value.
	if err := tbl.Append(int64(1234), 42.0); err != nil {
		t.Fatal(err)
	}
	res, err = tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	s, err = res.WindowAgg("ts", time.Millisecond, "v", AggMax)
	if err != nil || len(s.Values) != 1 || s.Values[0] != 42.0 || s.StartMicros[0] != 1000 {
		t.Fatalf("single row: %+v err %v, want one window [1000]=42", s, err)
	}
	// Non-positive window is rejected.
	if _, err := res.WindowAgg("ts", 0, "v", AggMax); err == nil {
		t.Fatal("zero window accepted")
	}
	// Unknown columns are rejected.
	if _, err := res.WindowAgg("nope", time.Millisecond, "v", AggMax); err == nil {
		t.Fatal("unknown time column accepted")
	}
	if _, err := res.WindowAgg("ts", time.Millisecond, "nope", AggMax); err == nil {
		t.Fatal("unknown value column accepted")
	}
}

func TestWindowAggBy(t *testing.T) {
	tbl := windowTable(t, 3000, 500_000, 11)
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := res.WindowAggBy("ts", 50*time.Millisecond, "v", AggCount, "tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Key >= groups[i].Key {
			t.Fatalf("groups not sorted by key: %q before %q", groups[i-1].Key, groups[i].Key)
		}
	}
	// Group totals must conserve the selection: every row lands in
	// exactly one (key, window) cell.
	total := 0.0
	for _, g := range groups {
		for _, v := range g.Values {
			total += v
		}
	}
	if total != 3000 {
		t.Fatalf("grouped counts sum to %g, want 3000", total)
	}
	// Each group's series must equal a WHERE-filtered WindowAgg.
	for _, g := range groups {
		fres, err := tbl.Select().Where("tier", OpEq, g.Key).Rows()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fres.WindowAgg("ts", 50*time.Millisecond, "v", AggCount)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(g.Series) != fmt.Sprint(*want) {
			t.Errorf("group %q diverges from filtered WindowAgg", g.Key)
		}
	}
	// Group-by over a numeric column is rejected.
	if _, err := res.WindowAggBy("ts", time.Millisecond, "v", AggCount, "v"); err == nil {
		t.Fatal("numeric group-by column accepted")
	}
	if _, err := res.WindowAggBy("ts", time.Millisecond, "v", AggCount, "nope"); err == nil {
		t.Fatal("unknown group-by column accepted")
	}
}

// aggregate is the reference aggregation the window tests hold the dense
// grid to: one bucket's values, aggregated the obvious way.
func aggregate(fn AggFn, vals []float64) float64 {
	if fn == AggCount {
		return float64(len(vals))
	}
	if len(vals) == 0 {
		return 0
	}
	switch fn {
	case AggAvg:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case AggMax:
		m := math.Inf(-1)
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m
	case AggMin:
		m := math.Inf(1)
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	case AggP99:
		sorted := make([]float64, len(vals))
		copy(sorted, vals)
		sort.Float64s(sorted)
		return sorted[len(sorted)*99/100]
	default:
		panic(fmt.Sprintf("mscopedb: unknown aggregate %v", fn))
	}
}

// TestP99SelectionMatchesSort: the p99 of a window is the value at rank
// len*99/100 of the window sorted by sort.Float64s (NaN below every number),
// with the zeros of that sort put -0 first: bit for bit, over random
// windows of every small length and some long ones, drawn from few
// distinct values (so with runs of duplicates), NaNs, infinities and both
// zeros.
func TestP99SelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1.5, 2, 3, 1e9, -1e-9}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + trial%64
		if trial%10 == 0 {
			n = 100 + rng.Intn(2000)
		}
		distinct := 1 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			switch r := rng.Intn(4); {
			case r == 0:
				vals[i] = pool[rng.Intn(len(pool))]
			case r == 1 && distinct > 1:
				vals[i] = float64(rng.Intn(distinct)) * 10
			default:
				vals[i] = rng.NormFloat64() * 100
			}
		}
		want := slices.Clone(vals)
		sort.Float64s(want)
		// sort.Float64s leaves the zeros in input order: put -0 first.
		lo, hi, neg := sort.SearchFloat64s(want, 0), 0, 0
		for hi = lo; hi < len(want) && want[hi] == 0; hi++ {
			if math.Signbit(want[hi]) {
				neg++
			}
		}
		for i := lo; i < hi; i++ {
			want[i] = 0
			if i < lo+neg {
				want[i] = math.Copysign(0, -1)
			}
		}
		k := n * 99 / 100
		got := selectRank(slices.Clone(vals), k)
		if math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Fatalf("trial %d: rank %d of %d values is %v (bits %x), want %v (bits %x)\n%v",
				trial, k, n, got, math.Float64bits(got), want[k], math.Float64bits(want[k]), vals)
		}
	}
}
