package mscopedb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// matchRowOracle is the row-at-a-time predicate test the typed column
// kernels of matchRows replaced, kept as their oracle: numeric cells
// coerce to float64 (times to their microsecond epoch), and a predicate
// whose kind does not match its column keeps no row.
func matchRowOracle(cols []Column, data []colData, row int, preds []pred) bool {
	for _, p := range preds {
		d := &data[p.col]
		if p.isStr {
			if cols[p.col].Type != TString || (d.Strs[row] == p.str) != (p.op == OpEq) {
				return false
			}
			continue
		}
		var v float64
		switch cols[p.col].Type {
		case TInt:
			v = float64(d.Ints[row])
		case TFloat:
			v = d.Floats[row]
		case TTime:
			v = float64(d.Times[row])
		default:
			return false
		}
		var ok bool
		switch p.op {
		case OpEq:
			ok = v == p.num
		case OpNe:
			ok = v != p.num
		case OpLt:
			ok = v < p.num
		case OpLe:
			ok = v <= p.num
		case OpGt:
			ok = v > p.num
		case OpGe:
			ok = v >= p.num
		}
		if !ok {
			return false
		}
	}
	return true
}

// kernelCols are the columns of the kernel tests: one of each type, and an
// id that is the row's table position.
var kernelCols = []Column{
	{Name: "id", Type: TInt},
	{Name: "i", Type: TInt},
	{Name: "f", Type: TFloat},
	{Name: "ts", Type: TTime},
	{Name: "s", Type: TString},
}

// kernelInts and kernelMicros are the int and time cells the kernel tests
// draw from: duplicates, negatives, and two ints one float64 apart.
var (
	kernelInts   = []int64{-3, -1, 0, 0, 2, 7, 1 << 60, 1<<60 + 1}
	kernelMicros = []int64{-2_000_000, -1, 0, 1, 1491004800000000, 1491004800000000}
)

// kernelRow is one random row of kernelCols.
func kernelRow(rng *rand.Rand, id int) []any {
	return []any{
		int64(id),
		kernelInts[rng.Intn(len(kernelInts))],
		fuzzFloats[rng.Intn(len(fuzzFloats))],
		time.UnixMicro(kernelMicros[rng.Intn(len(kernelMicros))]).UTC(),
		fuzzStrs[rng.Intn(len(fuzzStrs))],
	}
}

// kernelLiteral is a random predicate value: a number drawn from the cells
// (as an int64, a float64 or a time) or a string, whatever the column.
func kernelLiteral(rng *rand.Rand) any {
	switch rng.Intn(5) {
	case 0:
		return kernelInts[rng.Intn(len(kernelInts))]
	case 1:
		return fuzzFloats[rng.Intn(len(fuzzFloats))]
	case 2:
		return time.UnixMicro(kernelMicros[rng.Intn(len(kernelMicros))]).UTC()
	case 3:
		return float64(kernelMicros[rng.Intn(len(kernelMicros))])
	default:
		return fuzzStrs[rng.Intn(len(fuzzStrs))]
	}
}

// TestMatchRowsMatchesRowOracle holds the typed kernels to the row oracle
// on raw column data, over random columns and random predicate lists that
// include kind mismatches and operators out of range, which Where refuses
// before a scan ever sees them.
func TestMatchRowsMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		tbl, err := NewTable("k", kernelCols)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			if err := tbl.Append(kernelRow(rng, r)...); err != nil {
				t.Fatal(err)
			}
		}
		preds := make([]pred, rng.Intn(5))
		for i := range preds {
			p := pred{col: 1 + rng.Intn(len(kernelCols)-1), op: Op(rng.Intn(8))}
			switch v := kernelLiteral(rng).(type) {
			case string:
				p.str, p.isStr = v, true
			case int64:
				p.num = float64(v)
			case float64:
				p.num = v
			case time.Time:
				p.num = float64(v.UnixMicro())
			}
			preds[i] = p
		}
		got := matchRows(tbl.cols, tbl.data, n, preds)
		want := []int32{}
		for r := 0; r < n; r++ {
			if matchRowOracle(tbl.cols, tbl.data, r, preds) {
				want = append(want, int32(r))
			}
		}
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d: preds %+v keep %v, oracle %v", trial, preds, got, want)
		}
	}
}

// TestWhereMatchesRowOracle runs random predicate lists through Where on
// one random table twice — in memory, and spilled across tiny sealed
// segments plus a tail — and holds the rows each keeps to the row oracle
// over the whole table. Where refuses exactly the kind mismatches.
func TestWhereMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4949))
	split := 0 // trials whose spilled table has both segments and a tail
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(60)
		spilled, err := OpenDir(t.TempDir(), tinyStore(1+rng.Intn(8)))
		if err != nil {
			t.Fatal(err)
		}
		var tables []*Table
		rows := make([][]any, n)
		for r := range rows {
			rows[r] = kernelRow(rng, r)
		}
		for _, db := range []*DB{Open(), spilled} {
			tbl, err := db.Create("k", kernelCols)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if err := tbl.Append(row...); err != nil {
					t.Fatal(err)
				}
			}
			tables = append(tables, tbl)
		}
		if err := spilled.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mem, sp := tables[0], tables[1]
		if sp.SealedRows() > 0 && sp.SealedRows() < sp.Rows() {
			split++
		}
		for q := 0; q < 20; q++ {
			type where struct {
				col string
				op  Op
				v   any
			}
			ws := make([]where, rng.Intn(4))
			refused := false
			for i := range ws {
				c := kernelCols[1+rng.Intn(len(kernelCols)-1)]
				ws[i] = where{c.Name, Op(1 + rng.Intn(6)), kernelLiteral(rng)}
				_, isStr := ws[i].v.(string)
				if isStr != (c.Type == TString) || isStr && ws[i].op != OpEq && ws[i].op != OpNe {
					refused = true
				}
			}
			for k, tbl := range tables {
				qy := tbl.Select()
				for _, w := range ws {
					qy = qy.Where(w.col, w.op, w.v)
				}
				if (qy.err != nil) != refused {
					t.Fatalf("trial %d: where %+v: err %v, refused %v", trial, ws, qy.err, refused)
				}
				if refused {
					continue
				}
				want := []int64{}
				for r := 0; r < n; r++ {
					if matchRowOracle(mem.cols, mem.data, r, qy.preds) {
						want = append(want, int64(r))
					}
				}
				res, err := qy.Rows()
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.Ints("id")
				res.Release()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d table %d (%d of %d rows sealed): where %+v keeps %v, oracle %v",
						trial, k, tbl.SealedRows(), tbl.Rows(), ws, got, want)
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no spilled table had both sealed segments and a tail")
	}
}

// sameFloat is float equality that holds NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// TestWindowAggMatchesOracle holds the dense grid to the per-bucket
// reference on random tables whose instants straddle zero (so floors of
// negative instants), under windows that do not divide the span, with NaN
// and infinite values, for every aggregate over an int and a float value
// column, ungrouped and by group, over the whole table and a filtered
// selection.
func TestWindowAggMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5049))
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.5, -1.5, 2, 2, 1e300, -7}
	windows := []time.Duration{time.Microsecond, 7 * time.Microsecond, 333 * time.Microsecond, 3 * time.Millisecond, 50 * time.Millisecond}
	fns := []AggFn{AggAvg, AggMax, AggMin, AggSum, AggCount, AggP99}
	for trial := 0; trial < 60; trial++ {
		tbl, err := NewTable("wo", []Column{
			{Name: "ts", Type: TInt},
			{Name: "v", Type: TFloat},
			{Name: "n", Type: TInt},
			{Name: "g", Type: TString},
		})
		if err != nil {
			t.Fatal(err)
		}
		span := 1 + rng.Int63n(20_000)
		for r, n := 0, 1+rng.Intn(300); r < n; r++ {
			v := vals[rng.Intn(len(vals))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * 100
			}
			err := tbl.Append(rng.Int63n(span)-span/2, v, int64(rng.Intn(9))-4, fuzzStrs[rng.Intn(3)])
			if err != nil {
				t.Fatal(err)
			}
		}
		w := windows[rng.Intn(len(windows))]
		all, err := tbl.Select().Rows()
		if err != nil {
			t.Fatal(err)
		}
		some, err := tbl.Select().Where("ts", OpGe, int64(rng.Int63n(span)-span/2)).Rows()
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{all, some} {
			for _, fn := range fns {
				for _, valCol := range []string{"v", "n"} {
					check := func(what string, got *Series, sel *Result) {
						t.Helper()
						want := referenceWindowAgg(sel, "ts", w.Microseconds(), valCol, fn)
						if !slices.Equal(got.StartMicros, want.StartMicros) || !slices.EqualFunc(got.Values, want.Values, sameFloat) {
							t.Fatalf("trial %d %s %v(%s) per %v:\n got %v\nwant %v", trial, what, fn, valCol, w, *got, *want)
						}
					}
					got, err := res.WindowAgg("ts", w, valCol, fn)
					if err != nil {
						t.Fatal(err)
					}
					check("series", got, res)
					groups, err := res.WindowAggBy("ts", w, valCol, fn, "g")
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range groups {
						var idx []int
						for _, row := range res.idx {
							if tbl.Str(3, row) == g.Key {
								idx = append(idx, row)
							}
						}
						check(fmt.Sprintf("group %q", g.Key), &g.Series, &Result{t: tbl, idx: idx})
					}
				}
			}
		}
	}
}
