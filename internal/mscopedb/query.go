package mscopedb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// Op is a predicate comparison operator.
type Op int

// Comparison operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

type pred struct {
	col   int
	op    Op
	num   float64 // numeric/time comparisons
	str   string  // string comparisons
	isStr bool
}

// Query is a fluent scan over one table.
type Query struct {
	t     *Table
	preds []pred
	sort  int // column index, -1 for none
	asc   bool
	limit int
	err   error
}

// Select begins a query on the table.
func (t *Table) Select() *Query {
	return &Query{t: t, sort: -1, limit: -1, asc: true}
}

// Where adds a predicate. v may be int64, int, float64, time.Time or
// string; type mismatches surface at Rows().
func (q *Query) Where(col string, op Op, v any) *Query {
	if q.err != nil {
		return q
	}
	ci := q.t.ColIndex(col)
	if ci < 0 {
		q.err = fmt.Errorf("mscopedb: %s: no column %q", q.t.name, col)
		return q
	}
	p := pred{col: ci, op: op}
	switch x := v.(type) {
	case int:
		p.num = float64(x)
	case int64:
		p.num = float64(x)
	case float64:
		p.num = x
	case time.Duration:
		p.num = float64(x.Microseconds())
	case time.Time:
		p.num = float64(x.UnixMicro())
	case string:
		p.str = x
		p.isStr = true
	default:
		q.err = fmt.Errorf("mscopedb: %s.%s: unsupported predicate value %T", q.t.name, col, v)
		return q
	}
	if p.isStr != (q.t.cols[ci].Type == TString) {
		q.err = fmt.Errorf("mscopedb: %s.%s: predicate type %T against %v column",
			q.t.name, col, v, q.t.cols[ci].Type)
		return q
	}
	if p.isStr && op != OpEq && op != OpNe {
		q.err = fmt.Errorf("mscopedb: %s.%s: operator %v unsupported for strings", q.t.name, col, op)
		return q
	}
	q.preds = append(q.preds, p)
	return q
}

// Between adds lo <= col <= hi.
func (q *Query) Between(col string, lo, hi any) *Query {
	return q.Where(col, OpGe, lo).Where(col, OpLe, hi)
}

// OrderBy sorts the result by the column. The order is total: numbers
// by value, with NaN after every number (±Inf are ordinary values), and
// strings bytewise; rows with equal keys keep table order, in both
// directions.
func (q *Query) OrderBy(col string, asc bool) *Query {
	if q.err != nil {
		return q
	}
	ci := q.t.ColIndex(col)
	if ci < 0 {
		q.err = fmt.Errorf("mscopedb: %s: no column %q", q.t.name, col)
		return q
	}
	q.sort = ci
	q.asc = asc
	return q
}

// Limit caps the result size (applied after ordering): the result is the
// first n rows of the order, or of table order without one.
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Rows executes the scan. On a spill-backed table the kept rows become an
// ephemeral in-memory view whose columns are gathered from disk as the
// Result's methods first touch them (zone-map pruned, late-materialized —
// see spillScan), so the Result behaves identically either way.
func (q *Query) Rows() (*Result, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.t.seal != nil {
		sc, err := q.spilledScan()
		if err != nil {
			return nil, err
		}
		return &Result{t: sc.view, idx: sc.idx, spill: sc}, nil
	}
	// As spilledScan filters a store's tail.
	match := matchRows(q.t.cols, q.t.data, q.t.rows, q.preds)
	res := &Result{t: q.t}
	if rk := q.ranker(); rk != nil {
		rk.offer(q.t.data, match, 0)
		res.idx = rk.positions()
	} else {
		res.idx = make([]int, len(match))
		for i, r := range match {
			res.idx[i] = int(r)
		}
	}
	return res, nil
}

// ranker returns the query's top-k, or nil when it neither orders nor
// limits: then every match is the result, in table order.
func (q *Query) ranker() *topK {
	if q.sort < 0 && q.limit < 0 {
		return nil
	}
	rk := &topK{col: q.sort, desc: !q.asc, k: q.limit}
	if q.sort >= 0 {
		rk.typ = q.t.cols[q.sort].Type
	}
	return rk
}

// topK selects a limited or ordered query's rows: the first k in the order
// (key, table position), or all of them in that order when the query has
// no limit. Rows are offered a part at a time — a segment's matches, or
// the tail's — each with the table position of the part's first row. With
// a limit it is a bounded heap whose root is the worst row kept; without
// one it collects every row and sorts once.
type topK struct {
	col   int  // the ORDER BY column; -1 orders by table position alone
	typ   Type // its type
	desc  bool
	k     int // rows to keep; < 0 keeps every row
	items []ranked
}

// ranked is one row's sort key: a number mapped to a uint64 whose unsigned
// order is the documented one (numKey, intKey), or a string; the other
// half is zero.
type ranked struct {
	num uint64
	str string
	pos int
}

// before reports whether a comes before b in the result.
func (r *topK) before(a, b ranked) bool {
	switch {
	case a.num != b.num:
		return (a.num < b.num) != r.desc
	case a.str != b.str:
		return (a.str < b.str) != r.desc
	}
	return a.pos < b.pos
}

// offer considers rows (ascending local row numbers) of a part whose
// columns are data and whose first row sits at table position base.
func (r *topK) offer(data []colData, rows []int32, base int) {
	for _, row := range rows {
		it := ranked{pos: base + int(row)}
		if r.col >= 0 {
			switch d := &data[r.col]; r.typ {
			case TInt:
				it.num = intKey(d.Ints[row])
			case TTime:
				it.num = intKey(d.Times[row])
			case TFloat:
				it.num = numKey(d.Floats[row])
			case TString:
				it.str = d.Strs[row]
			}
		}
		switch {
		case r.k < 0:
			r.items = append(r.items, it)
		case len(r.items) < r.k:
			r.items = append(r.items, it)
			r.up(len(r.items) - 1)
		case r.k > 0 && r.before(it, r.items[0]):
			r.items[0] = it
			r.down(0)
		}
	}
}

// up and down keep the heap property: no row comes before its parent.
func (r *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !r.before(r.items[p], r.items[i]) {
			return
		}
		r.items[p], r.items[i] = r.items[i], r.items[p]
		i = p
	}
}

func (r *topK) down(i int) {
	for {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(r.items) && r.before(r.items[w], r.items[c]) {
				w = c
			}
		}
		if w == i {
			return
		}
		r.items[w], r.items[i] = r.items[i], r.items[w]
		i = w
	}
}

// need is how many rows the next round of segments should hold: the rows
// the selection still lacks, or all it keeps once full; -1 when it keeps
// every row.
func (r *topK) need() int {
	if n := r.k - len(r.items); n > 0 && r.k > 0 {
		return n
	}
	return max(r.k, -1)
}

// beyond is the stop rule of a limited scan: it reports that no row of the
// segment can enter the selection. Without an ORDER BY column that is once
// the selection is full and the segment starts after the worst row kept.
// With one, once the segment's zone bound in the order's direction is
// strictly worse than the worst key kept: a tie may hold an earlier row,
// so it is still read. The zone is the cells' float64 coercion, which is
// monotone, so a strictly worse bound proves every cell strictly worse.
func (r *topK) beyond(ss sealedSeg) bool {
	if r.k < 0 || len(r.items) < r.k {
		return false
	}
	if r.k == 0 {
		return true
	}
	worst := r.items[0]
	if r.col < 0 {
		return ss.start > worst.pos
	}
	z := ss.meta.Zones[r.col]
	if !z.Has { // strings too
		return false
	}
	kth := keyNum(r.typ, worst.num)
	if r.desc {
		return numLess(z.Max, kth)
	}
	return numLess(kth, z.Min)
}

// positions returns the selected table positions in result order.
func (r *topK) positions() []int {
	slices.SortFunc(r.items, func(a, b ranked) int {
		if r.before(a, b) {
			return -1
		}
		return 1 // positions are unique: never equal
	})
	out := make([]int, len(r.items))
	for i, it := range r.items {
		out[i] = it.pos
	}
	return out
}

// numKey maps a float to a uint64 whose unsigned order is the documented
// one: numbers by value, -0 with +0, every NaN after +Inf.
func numKey(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// intKey maps an int64 (an int or a time's microsecond epoch) to a uint64
// of the same order.
func intKey(v int64) uint64 { return uint64(v) ^ 1<<63 }

// keyNum inverts the key maps onto the float64 line the zone maps use.
func keyNum(typ Type, k uint64) float64 {
	if typ != TFloat {
		return float64(int64(k ^ 1<<63))
	}
	switch {
	case k == math.MaxUint64:
		return math.NaN()
	case k>>63 != 0:
		return math.Float64frombits(k &^ (1 << 63))
	default:
		return math.Float64frombits(^k)
	}
}

// numLess is a < b in the documented order, where NaN follows every number.
func numLess(a, b float64) bool {
	return a < b || (b != b && a == a)
}

// Result is a row selection. Its methods read whole typed columns; on a
// spill-backed table a column is gathered from the segment images the
// first time one of them touches it. Not safe for concurrent use.
type Result struct {
	t     *Table
	idx   []int
	spill *spillScan // non-nil when t is the view of a spill-backed scan
}

// Len returns the selected row count.
func (r *Result) Len() int { return len(r.idx) }

// col returns column ci of the table idx indexes, gathered if need be.
func (r *Result) col(ci int) (*colData, error) {
	if r.spill != nil {
		if err := r.spill.fill(ci); err != nil {
			return nil, err
		}
	}
	return &r.t.data[ci], nil
}

// numeric returns a reader of the column's cells coerced to float64, as
// predicates and aggregation see them; times coerce to their microsecond
// epoch.
func (d *colData) numeric(typ Type) func(row int) float64 {
	switch typ {
	case TInt:
		return func(row int) float64 { return float64(d.Ints[row]) }
	case TFloat:
		return func(row int) float64 { return d.Floats[row] }
	default:
		return func(row int) float64 { return float64(d.Times[row]) }
	}
}

// Ints extracts an int column.
func (r *Result) Ints(col string) ([]int64, error) {
	d, err := r.colOfType(col, TInt)
	if err != nil {
		return nil, err
	}
	return pick(d.Ints, r.idx), nil
}

// Floats extracts a numeric column coerced to float64 (int, float or time).
func (r *Result) Floats(col string) ([]float64, error) {
	ci := r.t.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, col)
	}
	if r.t.cols[ci].Type == TString {
		return nil, fmt.Errorf("mscopedb: %s.%s: string column is not numeric", r.t.name, col)
	}
	d, err := r.col(ci)
	if err != nil {
		return nil, err
	}
	num := d.numeric(r.t.cols[ci].Type)
	out := make([]float64, len(r.idx))
	for i, row := range r.idx {
		out[i] = num(row)
	}
	return out, nil
}

// TimesMicros extracts a time column as microsecond epochs.
func (r *Result) TimesMicros(col string) ([]int64, error) {
	d, err := r.colOfType(col, TTime)
	if err != nil {
		return nil, err
	}
	return pick(d.Times, r.idx), nil
}

// Strings extracts a string column.
func (r *Result) Strings(col string) ([]string, error) {
	d, err := r.colOfType(col, TString)
	if err != nil {
		return nil, err
	}
	return pick(d.Strs, r.idx), nil
}

// Render extracts a column of any type as text, the way the converter's
// CSV writes it: ints in decimal, floats in their shortest form, times in
// the mScope layout, strings as they are.
func (r *Result) Render(col string) ([]string, error) {
	ci := r.t.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, col)
	}
	d, err := r.col(ci)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(r.idx))
	for i, row := range r.idx {
		switch r.t.cols[ci].Type {
		case TInt:
			out[i] = strconv.FormatInt(d.Ints[row], 10)
		case TFloat:
			out[i] = strconv.FormatFloat(d.Floats[row], 'g', -1, 64)
		case TTime:
			out[i] = time.UnixMicro(d.Times[row]).UTC().Format(mxml.TimeLayout)
		case TString:
			out[i] = d.Strs[row]
		}
	}
	return out, nil
}

func pick[E any](vals []E, idx []int) []E {
	out := make([]E, len(idx))
	for i, row := range idx {
		out[i] = vals[row]
	}
	return out
}

func (r *Result) colOfType(col string, want Type) (*colData, error) {
	ci := r.t.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, col)
	}
	if r.t.cols[ci].Type != want {
		return nil, fmt.Errorf("mscopedb: %s.%s: is %v, want %v",
			r.t.name, col, r.t.cols[ci].Type, want)
	}
	return r.col(ci)
}

// AggFn is a window aggregation function.
type AggFn int

// Aggregation functions.
const (
	AggAvg AggFn = iota + 1
	AggMax
	AggMin
	AggSum
	AggCount
	AggP99
)

func (f AggFn) String() string {
	switch f {
	case AggAvg:
		return "avg"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggP99:
		return "p99"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// ParseAggFn inverts AggFn.String.
func ParseAggFn(s string) (AggFn, error) {
	switch s {
	case "avg":
		return AggAvg, nil
	case "max":
		return AggMax, nil
	case "min":
		return AggMin, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "p99":
		return AggP99, nil
	default:
		return 0, fmt.Errorf("mscopedb: unknown aggregate %q", s)
	}
}

// Series is a window-aggregated time series.
type Series struct {
	// StartMicros are the window start timestamps.
	StartMicros []int64
	// Values are the aggregated values per window.
	Values []float64
}

// maxGridBuckets caps the dense aggregation grid: it is laid out flat, one
// slot per window between the first and last populated ones, so a fine
// window over a long selection would otherwise allocate without bound.
// 50 ms windows over a day-long trial are 1.7 million.
const maxGridBuckets = 4 << 20

// WindowAgg buckets the selection by a time-like column (TTime or TInt
// microsecond epochs) into fixed windows and aggregates a value column in
// each. Empty windows between the first and last populated ones yield 0
// for count/sum and NaN-free carry of zero for the others. A window below
// the warehouse's microsecond resolution, or a grid of more than
// maxGridBuckets windows, is an error.
func (r *Result) WindowAgg(timeCol string, window time.Duration, valCol string, fn AggFn) (*Series, error) {
	w := window.Microseconds()
	if w <= 0 {
		return nil, fmt.Errorf("mscopedb: window %v is below one microsecond", window)
	}
	tci := r.t.ColIndex(timeCol)
	if tci < 0 {
		return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, timeCol)
	}
	switch r.t.cols[tci].Type {
	case TTime, TInt:
	default:
		return nil, fmt.Errorf("mscopedb: %s.%s: not a time-like column", r.t.name, timeCol)
	}
	val := func(int) float64 { return 0 }
	if fn != AggCount {
		vci := r.t.ColIndex(valCol)
		if vci < 0 {
			return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, valCol)
		}
		if r.t.cols[vci].Type == TString {
			return nil, fmt.Errorf("mscopedb: %s.%s: cannot aggregate strings", r.t.name, valCol)
		}
		d, err := r.col(vci)
		if err != nil {
			return nil, err
		}
		val = d.numeric(r.t.cols[vci].Type)
	}
	if len(r.idx) == 0 {
		return &Series{}, nil
	}
	td, err := r.col(tci)
	if err != nil {
		return nil, err
	}
	times := td.Times
	if r.t.cols[tci].Type == TInt {
		times = td.Ints
	}
	// Bucket bounds first, so the grid can be laid out flat.
	var lo, hi int64
	for i, row := range r.idx {
		b := times[row] - mod(times[row], w)
		if i == 0 || b < lo {
			lo = b
		}
		if i == 0 || b > hi {
			hi = b
		}
	}
	// The output grid covers every window between the first and last
	// populated buckets, so flat accumulators of the same length cost at
	// most a small constant factor over the result itself.
	if span := hi - lo; span < 0 || span/w >= maxGridBuckets {
		return nil, fmt.Errorf("mscopedb: %v windows over %s.%s make a grid of more than %d buckets",
			window, r.t.name, timeCol, maxGridBuckets)
	}
	return r.windowAggDense(w, lo, (hi-lo)/w+1, fn, times, val), nil
}

// windowAggDense is the vectorized aggregation path: one flat
// accumulator slot per grid bucket, filled in a single pass over the
// selection (two for p99, which scatters values into per-bucket
// segments of one backing array by counting-sort offsets). No per-row
// map lookups or per-bucket slice growth.
func (r *Result) windowAggDense(w, lo, n int64, fn AggFn, times []int64, val func(int) float64) *Series {
	counts := make([]int64, n)
	var sums, exts []float64
	switch fn {
	case AggAvg, AggSum:
		sums = make([]float64, n)
	case AggMax, AggMin:
		exts = make([]float64, n)
		init := math.Inf(-1)
		if fn == AggMin {
			init = math.Inf(1)
		}
		for i := range exts {
			exts[i] = init
		}
	}
	for _, row := range r.idx {
		ts := times[row]
		i := (ts - mod(ts, w) - lo) / w
		counts[i]++
		switch fn {
		case AggAvg, AggSum:
			sums[i] += val(row)
		case AggMax:
			if v := val(row); v > exts[i] {
				exts[i] = v
			}
		case AggMin:
			if v := val(row); v < exts[i] {
				exts[i] = v
			}
		}
	}
	var flat []float64
	var offs []int64
	if fn == AggP99 {
		offs = make([]int64, n+1)
		for i, c := range counts {
			offs[i+1] = offs[i] + c
		}
		flat = make([]float64, offs[n])
		fill := make([]int64, n)
		for _, row := range r.idx {
			ts := times[row]
			i := (ts - mod(ts, w) - lo) / w
			flat[offs[i]+fill[i]] = val(row)
			fill[i]++
		}
	}
	s := &Series{StartMicros: make([]int64, n), Values: make([]float64, n)}
	for i := int64(0); i < n; i++ {
		s.StartMicros[i] = lo + i*w
		if fn == AggCount {
			s.Values[i] = float64(counts[i])
			continue
		}
		if counts[i] == 0 {
			continue // zero carry for empty windows, as documented
		}
		switch fn {
		case AggAvg:
			s.Values[i] = sums[i] / float64(counts[i])
		case AggSum:
			s.Values[i] = sums[i]
		case AggMax, AggMin:
			s.Values[i] = exts[i]
		case AggP99:
			seg := flat[offs[i]:offs[i+1]]
			sort.Float64s(seg)
			s.Values[i] = seg[len(seg)*99/100]
		}
	}
	return s
}

// GroupSeries is one group's window-aggregated series, keyed by the
// group-by column's value.
type GroupSeries struct {
	Key string
	Series
}

// WindowAggBy is WindowAgg partitioned by a string column: the
// selection is split into per-key row sets (cheap on interned columns —
// low-cardinality keys share backing storage) and each group is
// aggregated on its own grid. Groups return sorted by key.
func (r *Result) WindowAggBy(timeCol string, window time.Duration, valCol string, fn AggFn, byCol string) ([]GroupSeries, error) {
	bci := r.t.ColIndex(byCol)
	if bci < 0 {
		return nil, fmt.Errorf("mscopedb: %s: no column %q", r.t.name, byCol)
	}
	if r.t.cols[bci].Type != TString {
		return nil, fmt.Errorf("mscopedb: %s.%s: group-by requires a string column", r.t.name, byCol)
	}
	by, err := r.col(bci)
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]int)
	keys := make([]string, 0, 8)
	for _, row := range r.idx {
		k := by.Strs[row]
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], row)
	}
	sort.Strings(keys)
	out := make([]GroupSeries, 0, len(keys))
	for _, k := range keys {
		sub := &Result{t: r.t, idx: groups[k], spill: r.spill}
		s, err := sub.WindowAgg(timeCol, window, valCol, fn)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupSeries{Key: k, Series: *s})
	}
	return out, nil
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
