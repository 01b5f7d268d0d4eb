package mql

import (
	"fmt"
	"strings"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// JoinClause is the optional equi-join of a statement:
//
//	SELECT a.reqid, a.rt_us, b.ua FROM apache_event a JOIN tomcat_event b ON reqid
//
// joins two tables on a column both share (the propagated request ID being
// the canonical case — the cross-monitor correlation the paper's
// warehouse exists for).
type JoinClause struct {
	Table string
	Alias string
	OnCol string
}

// execJoin runs a joined statement: hash-build on the right table, probe
// with the left, evaluate qualified predicates on the combined row.
func execJoin(db *mscopedb.DB, st *Statement) (*Output, error) {
	if st.Windowed {
		return nil, fmt.Errorf("mql: WINDOW aggregation is not supported on joins")
	}
	if st.OrderCol != "" {
		return nil, fmt.Errorf("mql: ORDER BY is not supported on joins")
	}
	left, err := db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	right, err := db.Table(st.Join.Table)
	if err != nil {
		return nil, err
	}
	lKey, err := keyColumn(left, st.Join.OnCol)
	if err != nil {
		return nil, err
	}
	rKey, err := keyColumn(right, st.Join.OnCol)
	if err != nil {
		return nil, err
	}
	if lKey != rKey {
		return nil, fmt.Errorf("mql: join column %q is %v in %s but %v in %s",
			st.Join.OnCol, lKey, st.Table, rKey, st.Join.Table)
	}

	lAlias := st.BaseAlias
	if lAlias == "" {
		lAlias = st.Table
	}
	rAlias := st.Join.Alias
	if rAlias == "" {
		rAlias = st.Join.Table
	}
	if lAlias == rAlias {
		return nil, fmt.Errorf("mql: both sides of the join are named %q", lAlias)
	}

	// Resolve predicates to sides.
	type sidedPred struct {
		left bool
		col  string
		op   mscopedb.Op
		val  any
	}
	var preds []sidedPred
	for _, pr := range st.Preds {
		alias, col, err := splitQualified(pr.Col)
		if err != nil {
			return nil, err
		}
		var tbl *mscopedb.Table
		var isLeft bool
		switch alias {
		case lAlias:
			tbl, isLeft = left, true
		case rAlias:
			tbl, isLeft = right, false
		default:
			return nil, fmt.Errorf("mql: predicate references unknown alias %q", alias)
		}
		v, err := coerce(tbl, col, pr.Value)
		if err != nil {
			return nil, err
		}
		preds = append(preds, sidedPred{left: isLeft, col: col, op: pr.Op, val: v})
	}

	// Pre-filter each side with its own predicates using the scan engine.
	lq := left.Select()
	rq := right.Select()
	for _, p := range preds {
		if p.left {
			lq = lq.Where(p.col, p.op, p.val)
		} else {
			rq = rq.Where(p.col, p.op, p.val)
		}
	}
	lRows, err := lq.Rows()
	if err != nil {
		return nil, err
	}
	defer lRows.Release()
	rRows, err := rq.Rows()
	if err != nil {
		return nil, err
	}
	defer rRows.Release()

	// Build hash on the (usually smaller, pre-filtered) right side, keyed
	// by the join cell's text.
	rKeys, err := rRows.Render(st.Join.OnCol)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]int)
	for i, k := range rKeys {
		build[k] = append(build[k], i)
	}

	// Output column resolution: each is one side's column, rendered whole.
	cols := st.Cols
	if cols == nil {
		for _, c := range left.Columns() {
			cols = append(cols, lAlias+"."+c.Name)
		}
		for _, c := range right.Columns() {
			cols = append(cols, rAlias+"."+c.Name)
		}
	}
	type outCol struct {
		left  bool
		cells []string
	}
	outs := make([]outCol, len(cols))
	for i, qc := range cols {
		alias, col, err := splitQualified(qc)
		if err != nil {
			return nil, err
		}
		side, rows, name := left, lRows, st.Table
		switch alias {
		case lAlias:
		case rAlias:
			side, rows, name = right, rRows, st.Join.Table
		default:
			return nil, fmt.Errorf("mql: select references unknown alias %q", alias)
		}
		if side.ColIndex(col) < 0 {
			return nil, fmt.Errorf("mql: no column %q in %s", col, name)
		}
		outs[i].left = side == left
		if outs[i].cells, err = rows.Render(col); err != nil {
			return nil, err
		}
	}

	// Probe.
	out := &Output{Cols: cols}
	lKeys, err := lRows.Render(st.Join.OnCol)
	if err != nil {
		return nil, err
	}
	for l, k := range lKeys {
		for _, r := range build[k] {
			cells := make([]string, len(outs))
			for c, oc := range outs {
				if oc.left {
					cells[c] = oc.cells[l]
				} else {
					cells[c] = oc.cells[r]
				}
			}
			out.Rows = append(out.Rows, cells)
			if st.Limit >= 0 && len(out.Rows) >= st.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// keyColumn returns the type of the join column in one table.
func keyColumn(t *mscopedb.Table, col string) (mscopedb.Type, error) {
	ci := t.ColIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("mql: join column %q absent from %s", col, t.Name())
	}
	return t.Columns()[ci].Type, nil
}

// splitQualified splits "alias.col" into its parts.
func splitQualified(qc string) (alias, col string, err error) {
	i := strings.IndexByte(qc, '.')
	if i <= 0 || i == len(qc)-1 {
		return "", "", fmt.Errorf("mql: joined queries need qualified columns (alias.col), got %q", qc)
	}
	return qc[:i], qc[i+1:], nil
}
