package faults

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeDir materializes a fake monitor-log directory.
func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func apacheLines(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "10.1.1.32 - - [01/Apr/2017:00:00:00.%03d +0000] \"GET /rubbos/Browse?ID=req-%07d HTTP/1.1\" 200 4096 D=900 UA=%d UD=%d DS=- DR=-\n",
			i, i, 1491004800000000+int64(i)*1000, 1491004800000900+int64(i)*1000)
	}
	return b.String()
}

func slowLog(n int) string {
	var b strings.Builder
	b.WriteString("mysqld, Version: 5.7\nTcp port: 3306\nTime                 Id Command    Argument\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "# Time: 2017-04-01T00:00:%02d.000000Z\n", i%60)
		fmt.Fprintf(&b, "# User@Host: rubbos[rubbos] @ 10.1.1.34 [10.1.1.34]  Id:   %d\n", i)
		b.WriteString("# Query_time: 0.001000  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n")
		fmt.Fprintf(&b, "SET timestamp=%d;\n", 1491004800+i)
		fmt.Fprintf(&b, "SELECT * FROM items /*ID=req-%07d q=0*/;\n", i)
	}
	return b.String()
}

func collectlCSV(n int) string {
	var b strings.Builder
	b.WriteString("#Date,Time,CPU,DskRead,DskWrite\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "20170401,00:00:%02d.000,12,5,9\n", i%60)
	}
	return b.String()
}

func testFiles() map[string]string {
	return map[string]string{
		"apache_access.log":  apacheLines(200),
		"mysql_slow.log":     slowLog(60),
		"mysql_collectl.csv": collectlCSV(100),
		"apache_sar.xml":     "<sysstat><host>apache</host></sysstat>\n",
		"cjdbc_ctrl.log":     "[cjdbc-ctrl] 1491004800.004893 vdb=rubbos req=req-0000001 q=0 ua=1491004800004893 ud=1491004800005500 ds=- dr=- sql=\"SELECT 1\"\n",
	}
}

func readAll(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestCorruptDeterministic is the replayability contract: same seed and
// input produce byte-identical output directories.
func TestCorruptDeterministic(t *testing.T) {
	src := writeDir(t, testFiles())
	cfg := Config{Seed: 42, Rate: 0.05, Kinds: AllKinds(),
		DeleteTiers: []string{"tomcat"}}
	dst1, dst2 := t.TempDir(), t.TempDir()
	rep1, err := Corrupt(src, dst1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Corrupt(src, dst2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := readAll(t, dst1), readAll(t, dst2)
	if len(a) != len(b) {
		t.Fatalf("file count differs: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s differs between identical passes", name)
		}
	}
	for _, k := range AllKinds() {
		if rep1.Total(k) != rep2.Total(k) {
			t.Errorf("kind %s: injected %d vs %d", k, rep1.Total(k), rep2.Total(k))
		}
	}
}

// TestCorruptSeedsDiffer guards against the RNG being ignored.
func TestCorruptSeedsDiffer(t *testing.T) {
	src := writeDir(t, testFiles())
	cfg := Config{Seed: 1, Rate: 0.1}
	dst1, dst2 := t.TempDir(), t.TempDir()
	if _, err := Corrupt(src, dst1, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	if _, err := Corrupt(src, dst2, cfg); err != nil {
		t.Fatal(err)
	}
	a, b := readAll(t, dst1), readAll(t, dst2)
	if bytes.Equal(a["apache_access.log"], b["apache_access.log"]) {
		t.Error("different seeds produced identical apache corruption")
	}
}

// TestGarbageLinesCounted checks the report's injection counts match the
// bytes on disk, which the exact-quarantine-count ingest test relies on.
func TestGarbageLinesCounted(t *testing.T) {
	src := writeDir(t, map[string]string{"apache_access.log": apacheLines(500)})
	dst := t.TempDir()
	rep, err := Corrupt(src, dst, Config{Seed: 7, Rate: 0.05,
		Kinds: []Kind{KindGarbage}})
	if err != nil {
		t.Fatal(err)
	}
	n := rep.Total(KindGarbage)
	if n == 0 {
		t.Fatal("rate 0.05 over 500 lines injected no garbage")
	}
	data := readAll(t, dst)["apache_access.log"]
	got := bytes.Count(data, []byte("<<chaos-garbage"))
	if got != n {
		t.Errorf("report says %d garbage lines, file has %d markers", n, got)
	}
}

// TestTruncateSlowLogMidRecord verifies truncation lands inside the final
// five-line record, which is what exercises the parser's resync path.
func TestTruncateSlowLogMidRecord(t *testing.T) {
	src := writeDir(t, map[string]string{"mysql_slow.log": slowLog(20)})
	dst := t.TempDir()
	rep, err := Corrupt(src, dst, Config{Seed: 3, Kinds: []Kind{KindTruncate}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total(KindTruncate) == 0 {
		t.Fatal("no truncation injected")
	}
	data := readAll(t, dst)["mysql_slow.log"]
	records := bytes.Count(data, []byte("# Time:"))
	complete := bytes.Count(data, []byte("SELECT"))
	if records != complete+1 {
		t.Errorf("want exactly one incomplete record: %d boundaries, %d complete", records, complete)
	}
}

// TestGapCutsResmonSamples verifies the resource-monitor gap fault.
func TestGapCutsResmonSamples(t *testing.T) {
	src := writeDir(t, map[string]string{"mysql_collectl.csv": collectlCSV(100)})
	dst := t.TempDir()
	rep, err := Corrupt(src, dst, Config{Seed: 5, Kinds: []Kind{KindGap}})
	if err != nil {
		t.Fatal(err)
	}
	gap := rep.Total(KindGap)
	if gap == 0 {
		t.Fatal("no gap injected")
	}
	data := readAll(t, dst)["mysql_collectl.csv"]
	rows := bytes.Count(data, []byte("20170401,"))
	if rows != 100-gap {
		t.Errorf("want %d rows after gap of %d, got %d", 100-gap, gap, rows)
	}
	if !bytes.HasPrefix(data, []byte("#Date,Time,")) {
		t.Error("gap fault destroyed the CSV header")
	}
}

// TestDeleteTierRemovesEventLog verifies delete-tier removes event logs but
// keeps the tier's resource files.
func TestDeleteTierRemovesEventLog(t *testing.T) {
	src := writeDir(t, testFiles())
	dst := t.TempDir()
	rep, err := Corrupt(src, dst, Config{Seed: 1,
		Kinds: []Kind{KindDeleteTier}, DeleteTiers: []string{"mysql"}})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, dst)
	if _, ok := got["mysql_slow.log"]; ok {
		t.Error("mysql_slow.log survived delete-tier")
	}
	if _, ok := got["mysql_collectl.csv"]; !ok {
		t.Error("delete-tier removed the tier's resource file too")
	}
	deleted := false
	for _, f := range rep.Files {
		if f.Name == "mysql_slow.log" && f.Deleted {
			deleted = true
		}
	}
	if !deleted {
		t.Error("report does not mark mysql_slow.log deleted")
	}
}

// TestSkewBounded verifies skewed timestamps stay within SkewMax and the
// reference tier is untouched.
func TestSkewBounded(t *testing.T) {
	src := writeDir(t, testFiles())
	dst := t.TempDir()
	rep, err := Corrupt(src, dst, Config{Seed: 11, Kinds: []Kind{KindSkew},
		SkewMax: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, dst)
	orig := readAll(t, src)
	if !bytes.Equal(got["apache_access.log"], orig["apache_access.log"]) {
		t.Error("reference tier apache was skewed")
	}
	for _, f := range rep.Files {
		if f.SkewMicros > 500 || f.SkewMicros < -500 {
			t.Errorf("%s skew %dµs exceeds bound", f.Name, f.SkewMicros)
		}
		if f.Name == "apache_access.log" && f.SkewMicros != 0 {
			t.Error("apache reported nonzero skew")
		}
	}
}

// TestPassthroughFiles verifies XML and unknown files survive unmodified.
func TestPassthroughFiles(t *testing.T) {
	src := writeDir(t, testFiles())
	dst := t.TempDir()
	if _, err := Corrupt(src, dst, Config{Seed: 9, Rate: 0.5, Kinds: AllKinds()}); err != nil {
		t.Fatal(err)
	}
	got, orig := readAll(t, dst), readAll(t, src)
	if !bytes.Equal(got["apache_sar.xml"], orig["apache_sar.xml"]) {
		t.Error("sar XML was corrupted; structured files must pass through")
	}
}

// TestCorruptRefusesOutOfRange: a Rate or GapFraction outside [0, 1], NaN
// included, is an error naming the field, returned before dstDir exists.
func TestCorruptRefusesOutOfRange(t *testing.T) {
	src := writeDir(t, testFiles())
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Rate", Config{Rate: math.NaN()}}, {"Rate", Config{Rate: -0.1}}, {"Rate", Config{Rate: 1.5}},
		{"GapFraction", Config{GapFraction: math.NaN()}}, {"GapFraction", Config{GapFraction: 2}},
	} {
		dst := filepath.Join(t.TempDir(), "out")
		_, err := Corrupt(src, dst, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%+v: err = %v, want one naming Config.%s", tc.cfg, err, tc.field)
		}
		if _, err := os.Stat(dst); !os.IsNotExist(err) {
			t.Errorf("%+v: output written before the config was checked", tc.cfg)
		}
	}
}

func TestParseKinds(t *testing.T) {
	ks, err := ParseKinds("garbage, torn")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0] != KindGarbage || ks[1] != KindTorn {
		t.Errorf("got %v", ks)
	}
	if _, err := ParseKinds("nonsense"); err == nil {
		t.Error("want error for unknown kind")
	}
	if ks, err := ParseKinds(""); err != nil || ks != nil {
		t.Errorf("empty spec: got %v, %v", ks, err)
	}
}
