package eventmon

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/ntier"
)

func runInstrumented(t *testing.T, cfgMod func(*ntier.Config)) (*ntier.System, *ntier.Driver, *Set, string) {
	t.Helper()
	cfg := ntier.DefaultConfig()
	cfg.Users = 50
	cfg.Duration = 1500 * time.Millisecond
	cfg.ThinkTime = 300 * time.Millisecond
	cfg.Seed = 5
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	sys := ntier.New(cfg)
	dir := t.TempDir()
	set, err := AttachWithConfig(sys, dir, DefaultConfig())
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	d := ntier.Run(sys)
	if err := set.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return sys, d, set, dir
}

func TestMonitorsWriteAllFourLogs(t *testing.T) {
	sys, d, set, dir := runInstrumented(t, nil)
	if len(d.Completed) == 0 {
		t.Fatal("no requests completed")
	}
	for name, path := range set.Paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s log: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s log is empty", name)
		}
	}
	// Visit counts must equal log record counts.
	apache, err := os.ReadFile(filepath.Join(dir, apacheLogName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(apache), "\n")
	if uint64(lines) != sys.Web.Visits() {
		t.Fatalf("apache log has %d lines, server saw %d visits", lines, sys.Web.Visits())
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, d, _, dir := runInstrumented(t, nil)
	id := d.Completed[0].ID()
	for _, name := range []string{apacheLogName, tomcatLogName, cjdbcLogName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), id) {
			t.Fatalf("%s does not contain request ID %s", name, id)
		}
	}
	// MySQL carries it in a comment only for query-issuing interactions.
	data, err := os.ReadFile(filepath.Join(dir, mysqlLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "/*ID=req-") {
		t.Fatal("mysql slow log has no propagated ID comments")
	}
}

func TestMySQLLogHasHeader(t *testing.T) {
	_, _, _, dir := runInstrumented(t, nil)
	data, err := os.ReadFile(filepath.Join(dir, mysqlLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "/usr/sbin/mysqld") {
		t.Fatal("mysql slow log missing file header")
	}
}

func TestMonitorOverheadCharged(t *testing.T) {
	sys, _, _, _ := runInstrumented(t, nil)
	for _, s := range sys.Servers() {
		base, extra := s.LogVolumeKB()
		if extra <= 0 {
			t.Fatalf("%s monitors charged no extra log bytes", s.Name())
		}
		// The paper reports aggregated disk writes "up to two times";
		// monitor volume must be within 0.5x..4x of native volume.
		ratio := extra / base
		if ratio < 0.5 || ratio > 4 {
			t.Fatalf("%s extra/base log ratio %.2f outside plausible band", s.Name(), ratio)
		}
	}
}

func TestRecordsCounter(t *testing.T) {
	sys, _, set, _ := runInstrumented(t, nil)
	var visits uint64
	for _, s := range sys.Servers() {
		visits += s.Visits()
	}
	if set.Records() != visits {
		t.Fatalf("set recorded %d records, servers saw %d visits", set.Records(), visits)
	}
}

func TestTimestampsUseSkewedClocks(t *testing.T) {
	_, _, _, dir := runInstrumented(t, nil)
	// The apache node's clock is +180µs: its UA micros must not equal the
	// tomcat node's for corresponding records; just sanity-check the logs
	// parse as µs-epoch values in 2017.
	data, err := os.ReadFile(filepath.Join(dir, apacheLogName))
	if err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.Contains(line, "UA=149") { // 2017 epoch µs prefix
		t.Fatalf("apache UA not a 2017 epoch-micros value: %s", line)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, _, set, _ := runInstrumented(t, nil)
	if err := set.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
}

func TestAttachBadDir(t *testing.T) {
	cfg := ntier.DefaultConfig()
	cfg.Users = 1
	sys := ntier.New(cfg)
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachWithConfig(sys, f, DefaultConfig()); err == nil {
		t.Fatal("attach into a file path did not error")
	}
}
