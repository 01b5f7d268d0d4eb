package parsers

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mxml"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/adapter_entries.txt")

// chaosNames gives each degradable format the file name the corruptor
// classifies as an event log (faults.Corrupt decides by suffix).
var chaosNames = map[string]string{
	"apache_access": "apache_access.log",
	"tomcat_mscope": "tomcat_mscope.log",
	"cjdbc_ctrl":    "cjdbc_ctrl.log",
	"mysql_slow":    "mysql_slow.log",
	"selftrace":     "self_mscope.log",
}

// dumpEntry renders one entry unambiguously: every field's name, hint and
// value, quoted, in order.
func dumpEntry(sb *strings.Builder, e mxml.Entry) {
	for _, f := range e.Fields {
		fmt.Fprintf(sb, "%q[%s]=%q ", f.Name, f.Hint, f.Value)
	}
	sb.WriteByte('\n')
}

// TestAdapterEntriesMatchGolden pins what Parse and ParseDegraded hand to an
// Emit sink — names, values, hints, order, and under a 1% chaos copy the
// diverted regions too — to what the tree emitted when every parser built
// its entries field by field. The golden file holds, per format and mode,
// the counts, the first entry in full and a digest of the whole dump; a
// mismatch leaves the full dumps in a temporary directory for diffing.
func TestAdapterEntriesMatchGolden(t *testing.T) {
	var golden strings.Builder
	dumps := make(map[string]string)
	section := func(name string, entries []mxml.Entry, diverted []Malformed) {
		var sb strings.Builder
		for _, e := range entries {
			dumpEntry(&sb, e)
		}
		for _, m := range diverted {
			fmt.Fprintf(&sb, "diverted line %d %q: %v\n", m.Line, m.Text, m.Err)
		}
		dump := sb.String()
		first, _, _ := strings.Cut(dump, "\n")
		fmt.Fprintf(&golden, "%s: %d entries, %d diverted, sha256 %x\n  %s\n",
			name, len(entries), len(diverted), sha256.Sum256([]byte(dump)), first)
		dumps[strings.ReplaceAll(name, " ", "_")+".dump"] = dump
	}
	for _, f := range benchFormats() {
		p, err := Get(f.parser)
		if err != nil {
			t.Fatal(err)
		}
		var entries []mxml.Entry
		keep := func(e mxml.Entry) error { entries = append(entries, e); return nil }
		if err := p.Parse(strings.NewReader(f.input), f.instr, keep); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		section(f.name+" parse", entries, nil)

		dp, degradable := p.(DegradedParser)
		if !degradable {
			continue
		}
		src, dst := t.TempDir(), t.TempDir()
		if err := os.WriteFile(filepath.Join(src, chaosNames[f.name]), []byte(f.input), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := faults.Corrupt(src, dst, faults.Config{Seed: 1, Rate: 0.01}); err != nil {
			t.Fatal(err)
		}
		bad, err := os.ReadFile(filepath.Join(dst, chaosNames[f.name]))
		if err != nil {
			t.Fatal(err)
		}
		entries = nil
		var diverted []Malformed
		err = dp.ParseDegraded(strings.NewReader(string(bad)), f.instr, keep,
			func(m Malformed) error { diverted = append(diverted, m); return nil })
		if err != nil {
			t.Fatalf("%s chaos: %v", f.name, err)
		}
		if len(diverted) == 0 {
			t.Errorf("%s: the chaos copy diverted nothing; the golden would not cover the degraded path", f.name)
		}
		section(f.name+" chaos", entries, diverted)
	}

	path := filepath.Join("testdata", "golden", "adapter_entries.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		dir, err := os.MkdirTemp("", "adapter_entries")
		if err != nil {
			t.Fatal(err)
		}
		for name, dump := range dumps {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(dump), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Errorf("entries differ from the golden file (full dumps left in %s):\n--- got\n%s--- want\n%s", dir, got, want)
	}
}
