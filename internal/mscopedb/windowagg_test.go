package mscopedb

import (
	"fmt"
	"math"
	"math/rand"
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
		want := referenceWindowAgg(res, w.Microseconds(), fn)
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

// referenceWindowAgg is the pre-vectorization per-bucket-slice
// implementation, kept as the differential oracle for the flat-grid
// path. Column layout: ts at 0, v at 1.
func referenceWindowAgg(r *Result, w int64, fn AggFn) *Series {
	buckets := make(map[int64][]float64)
	var lo, hi int64
	first := true
	for _, row := range r.idx {
		ts := r.t.Int(0, row)
		b := ts - mod(ts, w)
		var v float64
		if fn != AggCount {
			v = r.t.data[1].numeric(r.t.cols[1].Type)(row)
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
	var s Series
	for b := lo; b <= hi; b += w {
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
