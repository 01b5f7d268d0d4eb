// Package mql implements a small query language over mScopeDB — the
// "uniform interface" the paper promises researchers for exploring
// monitoring data without knowing each monitor's native format:
//
//	SELECT reqid, rt_us FROM apache_event WHERE rt_us > 100000 LIMIT 10
//	SELECT * FROM mysql_collectlcsv WHERE dsk_util > 90
//	SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event
//	SELECT WINDOW 100ms AVG(dsk_util) BY ts FROM mysql_collectlcsv
//	SELECT WINDOW 50ms COUNT() BY ltime FROM mscope_selftrace GROUP BY stage
//
// The language is deliberately tiny: single-table scans with conjunctive
// predicates, ordering, limits, and fixed-window aggregation. Request-path
// joins have a dedicated API (internal/tracegraph) because they join on
// propagated IDs across a known set of event tables.
//
// ORDER BY is a total order: numbers by value with NaN after every number
// (so first under DESC; ±Inf are ordinary values), times by instant,
// strings bytewise, and rows with equal keys in table order. LIMIT n keeps
// the first n rows of that order, or of table order without ORDER BY.
package mql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// Statement is a parsed query.
type Statement struct {
	Cols  []string // nil means *
	Table string
	// BaseAlias optionally renames the base table for qualified columns.
	BaseAlias string
	// Join, when non-nil, makes this a two-table equi-join.
	Join     *JoinClause
	Preds    []Pred
	OrderCol string
	OrderAsc bool
	Limit    int // -1 for none

	// Window aggregation (exclusive with Cols).
	Windowed bool
	Window   time.Duration
	AggFn    mscopedb.AggFn
	AggCol   string
	TimeCol  string
	// GroupCol partitions a windowed aggregation by a string column
	// ("GROUP BY tier"); empty means one ungrouped series.
	GroupCol string
}

// Pred is one conjunctive predicate.
type Pred struct {
	Col   string
	Op    mscopedb.Op
	Value string // raw literal; coerced against the column type at run time
}

// Output is a rendered result: either tabular rows or a series.
type Output struct {
	Cols   []string
	Rows   [][]string
	Series *mscopedb.Series
	// Groups carries the per-key series of a GROUP BY window
	// aggregation; Series is nil in that case.
	Groups []mscopedb.GroupSeries
}

// Run parses and executes a query against the warehouse.
func Run(db *mscopedb.DB, query string) (*Output, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Exec(db, st)
}

// Parse compiles the query text.
func Parse(query string) (*Statement, error) {
	toks, err := tokenize(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("mql: %w", err)
	}
	return st, nil
}

// Exec runs a parsed statement.
func Exec(db *mscopedb.DB, st *Statement) (*Output, error) {
	if st.Join != nil {
		return execJoin(db, st)
	}
	tbl, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	q := tbl.Select()
	for _, pr := range st.Preds {
		v, err := coerce(tbl, pr.Col, pr.Value)
		if err != nil {
			return nil, err
		}
		q = q.Where(pr.Col, pr.Op, v)
	}
	if st.OrderCol != "" {
		q = q.OrderBy(st.OrderCol, st.OrderAsc)
	}
	if st.Limit >= 0 && !st.Windowed {
		q = q.Limit(st.Limit)
	}
	res, err := q.Rows()
	if err != nil {
		return nil, err
	}
	if st.Windowed {
		fnName := strings.ToLower(st.AggFn.String())
		if st.GroupCol != "" {
			groups, err := res.WindowAggBy(st.TimeCol, st.Window, st.AggCol, st.AggFn, st.GroupCol)
			if err != nil {
				return nil, err
			}
			out := &Output{Cols: []string{st.GroupCol, "window_start_us", fnName}, Groups: groups}
			n := 0
			for _, g := range groups {
				n += len(g.StartMicros)
			}
			cells := make([]string, 0, 3*n)
			for _, g := range groups {
				for i := range g.StartMicros {
					cells = append(cells, g.Key,
						strconv.FormatInt(g.StartMicros[i], 10),
						strconv.FormatFloat(g.Values[i], 'g', -1, 64))
				}
			}
			out.Rows = rowsOver(cells, 3)
			return out, nil
		}
		s, err := res.WindowAgg(st.TimeCol, st.Window, st.AggCol, st.AggFn)
		if err != nil {
			return nil, err
		}
		out := &Output{Cols: []string{"window_start_us", fnName}, Series: s}
		cells := make([]string, 0, 2*len(s.StartMicros))
		for i := range s.StartMicros {
			cells = append(cells,
				strconv.FormatInt(s.StartMicros[i], 10),
				strconv.FormatFloat(s.Values[i], 'g', -1, 64))
		}
		out.Rows = rowsOver(cells, 2)
		return out, nil
	}
	cols := st.Cols
	if cols == nil {
		for _, c := range tbl.Columns() {
			cols = append(cols, c.Name)
		}
	}
	out := &Output{Cols: cols}
	cells := make([]string, res.Len()*len(cols))
	for i, c := range cols {
		if tbl.ColIndex(c) < 0 {
			return nil, fmt.Errorf("mql: no column %q in %s", c, st.Table)
		}
		col, err := res.Render(c)
		if err != nil {
			return nil, err
		}
		for r, cell := range col {
			cells[r*len(cols)+i] = cell
		}
	}
	out.Rows = rowsOver(cells, len(cols))
	return out, nil
}

// rowsOver cuts one backing slice of cells into rows of width cells each.
// Every row is capacity-capped, so appending to one cannot overwrite the
// next. No cells make no rows (nil, as an output with no match has).
func rowsOver(cells []string, width int) [][]string {
	if len(cells) == 0 || width == 0 {
		return nil
	}
	rows := make([][]string, len(cells)/width)
	for r := range rows {
		rows[r] = cells[r*width : (r+1)*width : (r+1)*width]
	}
	return rows
}

// coerce converts a literal to the column's Go type.
func coerce(tbl *mscopedb.Table, col, lit string) (any, error) {
	ci := tbl.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("mql: no column %q in %s", col, tbl.Name())
	}
	typ := tbl.Columns()[ci].Type
	switch typ {
	case mscopedb.TInt:
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mql: %s.%s: %q is not an int", tbl.Name(), col, lit)
		}
		return v, nil
	case mscopedb.TFloat:
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return nil, fmt.Errorf("mql: %s.%s: %q is not a float", tbl.Name(), col, lit)
		}
		return v, nil
	case mscopedb.TTime:
		if t, err := time.Parse(mxml.TimeLayout, lit); err == nil {
			return t, nil
		}
		if us, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return time.UnixMicro(us).UTC(), nil
		}
		return nil, fmt.Errorf("mql: %s.%s: %q is not a time (RFC3339 or µs epoch)", tbl.Name(), col, lit)
	case mscopedb.TString:
		return lit, nil
	default:
		return nil, fmt.Errorf("mql: %s.%s: unsupported type", tbl.Name(), col)
	}
}

// --- lexer ---

type token struct {
	text  string
	isStr bool // quoted literal
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("mql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{text: s[i+1 : j], isStr: true})
			i = j + 1
		case c == ',' || c == '(' || c == ')':
			toks = append(toks, token{text: string(c)})
			i++
		case c == '!' || c == '<' || c == '>' || c == '=':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{text: s[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{text: string(c)})
				i++
			}
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r,()!<>='", rune(s[j])) {
				j++
			}
			toks = append(toks, token{text: s[i:j]})
			i = j
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *parser) expectKeyword(kw string) error {
	t, ok := p.next()
	if !ok || !t.keywordIs(kw) {
		return fmt.Errorf("expected %s, got %q", kw, t.text)
	}
	return nil
}

func (t token) keywordIs(kw string) bool {
	return !t.isStr && strings.EqualFold(t.text, kw)
}

// isAlias reports whether the token can serve as a table alias: a bare
// identifier that is not one of the clause keywords.
func isAlias(t token) bool {
	if t.isStr || t.text == "" {
		return false
	}
	for _, kw := range []string{"JOIN", "ON", "WHERE", "ORDER", "LIMIT", "GROUP"} {
		if t.keywordIs(kw) {
			return false
		}
	}
	for _, c := range t.text {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{Limit: -1, OrderAsc: true}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end after SELECT")
	}
	if t.keywordIs("WINDOW") {
		if err := p.windowClause(st); err != nil {
			return nil, err
		}
	} else if err := p.selectList(st); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, ok := p.next()
	if !ok || tbl.text == "" {
		return nil, fmt.Errorf("expected table name")
	}
	st.Table = tbl.text
	if a, ok := p.peek(); ok && isAlias(a) {
		p.pos++
		st.BaseAlias = a.text
	}
	if t, ok := p.peek(); ok && t.keywordIs("JOIN") {
		p.pos++
		jc := &JoinClause{}
		jt, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("expected joined table name")
		}
		jc.Table = jt.text
		if a, ok := p.peek(); ok && isAlias(a) {
			p.pos++
			jc.Alias = a.text
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		onCol, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("expected join column after ON")
		}
		jc.OnCol = onCol.text
		st.Join = jc
	}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		switch {
		case t.keywordIs("WHERE"):
			p.pos++
			if err := p.whereClause(st); err != nil {
				return nil, err
			}
		case t.keywordIs("ORDER"):
			p.pos++
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			col, ok := p.next()
			if !ok {
				return nil, fmt.Errorf("expected order column")
			}
			st.OrderCol = col.text
			if d, ok := p.peek(); ok && (d.keywordIs("ASC") || d.keywordIs("DESC")) {
				p.pos++
				st.OrderAsc = d.keywordIs("ASC")
			}
		case t.keywordIs("LIMIT"):
			p.pos++
			nTok, ok := p.next()
			if !ok {
				return nil, fmt.Errorf("expected limit value")
			}
			n, err := strconv.Atoi(nTok.text)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad limit %q", nTok.text)
			}
			st.Limit = n
		case t.keywordIs("GROUP"):
			p.pos++
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			col, ok := p.next()
			if !ok {
				return nil, fmt.Errorf("expected group column")
			}
			st.GroupCol = col.text
		default:
			return nil, fmt.Errorf("unexpected token %q", t.text)
		}
	}
	// A window aggregation emits on the time grid; arbitrary row order
	// would contradict the series, so reject it outright instead of
	// silently ignoring the clause.
	if st.Windowed && st.OrderCol != "" {
		return nil, fmt.Errorf("ORDER BY cannot combine with WINDOW: the series is ordered by its time grid")
	}
	if st.GroupCol != "" && !st.Windowed {
		return nil, fmt.Errorf("GROUP BY requires a WINDOW aggregation")
	}
	return st, nil
}

// windowClause parses "WINDOW 50ms MAX(rt_us) BY ud".
func (p *parser) windowClause(st *Statement) error {
	p.pos++ // WINDOW
	wTok, ok := p.next()
	if !ok {
		return fmt.Errorf("expected window duration")
	}
	w, err := time.ParseDuration(wTok.text)
	if err != nil || w <= 0 {
		return fmt.Errorf("bad window duration %q", wTok.text)
	}
	st.Window = w
	fnTok, ok := p.next()
	if !ok {
		return fmt.Errorf("expected aggregate function")
	}
	fn, err := mscopedb.ParseAggFn(strings.ToLower(fnTok.text))
	if err != nil {
		return err
	}
	st.AggFn = fn
	if t, ok := p.next(); !ok || t.text != "(" {
		return fmt.Errorf("expected ( after aggregate")
	}
	colTok, ok := p.next()
	if !ok {
		return fmt.Errorf("expected aggregate column")
	}
	if colTok.text != ")" {
		st.AggCol = colTok.text
		if t, ok := p.next(); !ok || t.text != ")" {
			return fmt.Errorf("expected ) after aggregate column")
		}
	} else if fn != mscopedb.AggCount {
		return fmt.Errorf("%s requires a column", fnTok.text)
	}
	if err := p.expectKeyword("BY"); err != nil {
		return err
	}
	tsTok, ok := p.next()
	if !ok {
		return fmt.Errorf("expected time column after BY")
	}
	st.TimeCol = tsTok.text
	st.Windowed = true
	return nil
}

func (p *parser) selectList(st *Statement) error {
	t, ok := p.next()
	if !ok {
		return fmt.Errorf("expected select list")
	}
	if t.text == "*" {
		return nil
	}
	st.Cols = []string{t.text}
	for {
		t, ok := p.peek()
		if !ok || t.text != "," {
			return nil
		}
		p.pos++
		col, ok := p.next()
		if !ok {
			return fmt.Errorf("expected column after ,")
		}
		st.Cols = append(st.Cols, col.text)
	}
}

func (p *parser) whereClause(st *Statement) error {
	for {
		col, ok := p.next()
		if !ok {
			return fmt.Errorf("expected predicate column")
		}
		opTok, ok := p.next()
		if !ok {
			return fmt.Errorf("expected operator after %q", col.text)
		}
		var op mscopedb.Op
		switch opTok.text {
		case "=":
			op = mscopedb.OpEq
		case "!=":
			op = mscopedb.OpNe
		case "<":
			op = mscopedb.OpLt
		case "<=":
			op = mscopedb.OpLe
		case ">":
			op = mscopedb.OpGt
		case ">=":
			op = mscopedb.OpGe
		default:
			return fmt.Errorf("unknown operator %q", opTok.text)
		}
		val, ok := p.next()
		if !ok {
			return fmt.Errorf("expected value after %s %s", col.text, opTok.text)
		}
		st.Preds = append(st.Preds, Pred{Col: col.text, Op: op, Value: val.text})
		t, ok := p.peek()
		if !ok || !t.keywordIs("AND") {
			return nil
		}
		p.pos++
	}
}
