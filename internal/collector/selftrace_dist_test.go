package collector

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/stream"
)

// filteredDump renders a deterministic snapshot of every non-telemetry
// table: *_selftrace tables are skipped whole, and catalogue or ledger
// rows naming a selftrace source are dropped. Two warehouses agree on it
// iff their data content is row-for-row, cell-for-cell identical.
func filteredDump(t *testing.T, db *mscopedb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, name := range db.TableNames() {
		if strings.HasSuffix(name, "_selftrace") {
			continue
		}
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", name)
		cols := tbl.Columns()
	rows:
		for r := 0; r < tbl.Rows(); r++ {
			for c := range cols {
				if s, ok := tbl.Value(c, r).(string); ok && strings.Contains(s, "selftrace") {
					continue rows
				}
			}
			for c := range cols {
				fmt.Fprintf(&b, "%v|", tbl.Value(c, r))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDistSelfTraceDifferential proves fleet self-telemetry is free of
// observer effect on the data: a distributed run with self-tracing on
// yields exactly the data warehouse the plain run yields — every
// non-telemetry table byte-for-byte — while additionally holding the
// per-node span tables.
func TestDistSelfTraceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed selftrace differential skipped in -short mode")
	}
	cfg := smallScenarios()["dbio"](t.TempDir())
	cfg.Name = "dist-selftrace"
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	plain := distWarehouse(t, cfg.LogDir, hosts, stream.Config{}, false)
	traced := distWarehouse(t, cfg.LogDir, hosts, stream.Config{}, true)

	if got, want := filteredDump(t, traced), filteredDump(t, plain); got != want {
		t.Errorf("self-tracing perturbed the data warehouse (plain %d bytes, traced %d bytes)",
			len(want), len(got))
	}
	// And the telemetry actually landed: one table per agent, one for the
	// collector, each non-empty.
	for _, h := range hosts {
		name := "agent-" + h + "_selftrace"
		tbl, err := traced.Table(name)
		if err != nil || tbl.Rows() == 0 {
			t.Errorf("table %s missing or empty (err %v)", name, err)
		}
	}
	if tbl, err := traced.Table("collector_selftrace"); err != nil || tbl.Rows() == 0 {
		t.Errorf("collector_selftrace missing or empty (err %v)", err)
	}
}

// TestDistSelfTraceAttribution runs the three-agent fleet over the
// staged disk-IO trial and asserts the fleet-wide self-trace shows spans
// from every agent and the collector, each attributed to its node.
func TestDistSelfTraceAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed selftrace attribution skipped in -short mode")
	}
	stage := stagedDBIO(t)
	owners := []string{"apache", "tomcat", "mysql"}
	db := distWarehouse(t, stage, owners, stream.Config{}, true)

	ft, err := core.FleetSelfTraceBreakdown(db)
	if err != nil {
		t.Fatal(err)
	}
	if ft == nil {
		t.Fatal("fleet breakdown empty: no self-telemetry shipped")
	}
	wantNodes := []string{"agent-apache", "agent-mysql", "agent-tomcat", "collector"}
	if strings.Join(ft.Nodes, ",") != strings.Join(wantNodes, ",") {
		t.Fatalf("fleet nodes = %v, want %v", ft.Nodes, wantNodes)
	}
	// Every node contributes spans, and each stage row carries its node.
	perNode := make(map[string]int)
	for _, st := range ft.Stages {
		perNode[st.Node] += st.Spans
	}
	for _, n := range wantNodes {
		if perNode[n] == 0 {
			t.Errorf("node %s contributed no spans", n)
		}
	}
	// The agents' work shows up as agent-pipeline stages; the collector's
	// as collector-pipeline stages — attribution is not crossed.
	for _, st := range ft.Stages {
		switch {
		case strings.HasPrefix(st.Node, "agent-") && st.Pipeline != "agent":
			t.Errorf("agent node %s carries pipeline %s", st.Node, st.Pipeline)
		case st.Node == "collector" && st.Pipeline != "collector":
			t.Errorf("collector node carries pipeline %s", st.Pipeline)
		}
	}
	if ft.WallUS <= 0 {
		t.Errorf("fleet wall window = %dus, want positive", ft.WallUS)
	}
	// The rendered view names every node.
	var buf strings.Builder
	if err := core.RenderFleetSelfTrace(&buf, ft); err != nil {
		t.Fatal(err)
	}
	for _, n := range wantNodes {
		if !strings.Contains(buf.String(), n) {
			t.Errorf("rendered fleet view lacks node %s:\n%s", n, buf.String())
		}
	}
}

// TestDistSelfTraceShowsAgentFrontEnd: the front end an agent runs records
// the spans the live pipeline's does, under the agent's pipeline — one
// parse span per shipped file, whose items are the records the ship spans
// carried, and the poll cycles that moved bytes.
func TestDistSelfTraceShowsAgentFrontEnd(t *testing.T) {
	cfg := smallScenarios()["dbio"](t.TempDir())
	cfg.Name = "dist-selftrace-frontend"
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	db := distWarehouse(t, cfg.LogDir, []string{"apache"}, stream.Config{}, true)
	ft, err := core.FleetSelfTraceBreakdown(db)
	if err != nil || ft == nil {
		t.Fatalf("fleet breakdown: %v %v", ft, err)
	}
	stages := make(map[string]core.SelfStage)
	for _, st := range ft.Stages {
		if st.Node == "agent-apache" && st.Pipeline == "agent" {
			stages[st.Stage] = st
		}
	}
	parse, ship, tail := stages["parse"], stages["ship"], stages["tail"]
	if parse.Spans != sourcesPerHost || parse.Items == 0 || parse.Items != ship.Items {
		t.Errorf("parse stage %+v against ship stage %+v: want %d spans carrying the shipped records",
			parse, ship, sourcesPerHost)
	}
	if tail.Spans == 0 || tail.Items == 0 {
		t.Errorf("tail stage %+v: want the poll cycles that moved bytes", tail)
	}
}
