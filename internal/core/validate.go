package core

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/metrics"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// ConsistencyReport is the warehouse integrity check: the event monitors
// trace every request without sampling, so records must conserve across
// tiers — a mismatch means a monitor dropped or duplicated records.
type ConsistencyReport struct {
	// RowCounts per event table.
	RowCounts map[string]int
	// Problems lists every detected violation (empty = consistent).
	Problems []string
	// Littles holds the per-tier λ/W/L profile (informational).
	Littles map[string]*metrics.LittlesLawReport
}

// OK reports whether the warehouse passed every check.
func (r *ConsistencyReport) OK() bool { return len(r.Problems) == 0 }

// ValidateWarehouse cross-checks the four event tables of a fully drained
// trial:
//
//  1. Apache and Tomcat see every request exactly once each.
//  2. C-JDBC and MySQL see every query exactly once each.
//  3. Every request ID at a downstream tier exists at the front tier.
func ValidateWarehouse(db *mscopedb.DB) (*ConsistencyReport, error) {
	rep := &ConsistencyReport{
		RowCounts: make(map[string]int),
		Littles:   make(map[string]*metrics.LittlesLawReport),
	}
	tables := make(map[string]*mscopedb.Table, len(Tiers))
	for _, tier := range Tiers {
		tbl, err := db.Table(tier + "_event")
		if err != nil {
			return nil, err
		}
		tables[tier] = tbl
		rep.RowCounts[tier] = tbl.Rows()
		if ll, err := metrics.LittlesLaw(tbl); err == nil {
			rep.Littles[tier] = ll
		}
	}
	if rep.RowCounts["apache"] != rep.RowCounts["tomcat"] {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"request conservation violated: apache=%d tomcat=%d records",
			rep.RowCounts["apache"], rep.RowCounts["tomcat"]))
	}
	if rep.RowCounts["cjdbc"] != rep.RowCounts["mysql"] {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"query conservation violated: cjdbc=%d mysql=%d records",
			rep.RowCounts["cjdbc"], rep.RowCounts["mysql"]))
	}
	// Downstream IDs must exist upstream.
	front, err := reqIDSet(tables["apache"])
	if err != nil {
		return nil, err
	}
	for _, tier := range []string{"tomcat", "cjdbc", "mysql"} {
		ids, err := reqIDSet(tables[tier])
		if err != nil {
			return nil, err
		}
		missing := 0
		for id := range ids {
			if !front[id] {
				missing++
			}
		}
		if missing > 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"%d request IDs at %s absent from apache", missing, tier))
		}
	}
	return rep, nil
}

func reqIDSet(tbl *mscopedb.Table) (map[string]bool, error) {
	if tbl.ColIndex("reqid") < 0 {
		return nil, fmt.Errorf("core: %s lacks reqid column", tbl.Name())
	}
	out := make(map[string]bool, tbl.Rows())
	err := tbl.Scan([]string{"reqid"}, func(ch *mscopedb.Chunk) error {
		for _, id := range ch.Strs(0) {
			if id != "" {
				out[id] = true
			}
		}
		return nil
	})
	return out, err
}

// Summary renders the report for CLI output.
func (r *ConsistencyReport) Summary() string {
	if r.OK() {
		s := "monitor consistency: OK"
		for _, tier := range Tiers {
			if ll, ok := r.Littles[tier]; ok {
				s += fmt.Sprintf("\n  %-8s λ=%.1f/s W=%v L=%.2f",
					tier, ll.Lambda, ll.MeanResidence.Round(time.Microsecond), ll.MeanQueue)
			}
		}
		return s
	}
	s := "monitor consistency: PROBLEMS"
	for _, p := range r.Problems {
		s += "\n  " + p
	}
	return s
}
