package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const claimsGolden = "testdata/golden/paper_claims.txt"

// TestPaperClaims runs the paper's whole evaluation once: every claim must
// meet its bound, and, the simulation being deterministic, every value is
// pinned in the golden table. Run with -update to regenerate it.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every trial of the evaluation")
	}
	ev, err := Evaluate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ev.Missed() {
		t.Errorf("%s: %s: %s = %s %s, bound %s %s", c.Figure, c.Paper, c.Metric, formatValue(c.Value), c.Unit, c.Op, formatValue(c.Bound))
	}
	var ids []string
	for _, f := range ev.Figures {
		ids = append(ids, f.ID)
	}
	if got := strings.Join(ids, " "); got != "fig2 fig4 fig5 fig6 fig7 fig8a fig8b fig8c fig8d "+
		"fig9-apache fig9-tomcat fig9-cjdbc fig9-mysql fig10-iowait fig10-diskwrite fig10-cpu fig11-throughput fig11-rt" {
		t.Errorf("figures in print order: %s", got)
	}
	var buf bytes.Buffer
	if err := ev.WriteClaims(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(claimsGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(claimsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("claims differ:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExperimentsQuotesTheClaims keeps EXPERIMENTS.md's claims table the
// golden one, so the document states no number the evaluation does not
// compute.
func TestExperimentsQuotesTheClaims(t *testing.T) {
	golden, err := os.ReadFile(claimsGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), string(golden)) {
		t.Errorf("EXPERIMENTS.md does not quote %s verbatim; paste it in", claimsGolden)
	}
}
