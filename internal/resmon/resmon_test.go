package resmon

import (
	"encoding/xml"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/ntier"
)

// allKinds is every supported monitor kind.
var allKinds = []Kind{SARText, SARXML, Iostat, CollectlPlain, CollectlCSV, Pidstat}

func runMonitored(t *testing.T, cfg Config) (*ntier.System, *Set) {
	t.Helper()
	ncfg := ntier.DefaultConfig()
	ncfg.Users = 40
	ncfg.Duration = time.Second
	ncfg.ThinkTime = 250 * time.Millisecond
	ncfg.Seed = 3
	sys := ntier.New(ncfg)
	set, err := Start(sys, t.TempDir(), cfg, des.Time(ncfg.Duration))
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	ntier.Run(sys)
	if err := set.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return sys, set
}

func TestAllKindsProduceFiles(t *testing.T) {
	cfg := Config{Interval: 100 * time.Millisecond, Kinds: allKinds,
		CPUPerSample: 20 * time.Microsecond}
	_, set := runMonitored(t, cfg)
	if len(set.Paths) != 4*len(allKinds) {
		t.Fatalf("%d files, want %d", len(set.Paths), 4*len(allKinds))
	}
	for key, path := range set.Paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", key)
		}
	}
}

func TestSampleCountMatchesInterval(t *testing.T) {
	cfg := Config{Interval: 50 * time.Millisecond, Kinds: []Kind{CollectlCSV}}
	_, set := runMonitored(t, cfg)
	data, err := os.ReadFile(set.Paths["apache/collectl-csv"])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// 1s at 50ms = 20 samples + 1 header.
	if lines < 19 || lines > 23 {
		t.Fatalf("collectl csv has %d lines, want ~21", lines)
	}
}

func TestSARXMLIsWellFormed(t *testing.T) {
	cfg := Config{Interval: 100 * time.Millisecond, Kinds: []Kind{SARXML}}
	_, set := runMonitored(t, cfg)
	data, err := os.ReadFile(set.Paths["mysql/sar-xml"])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		XMLName xml.Name `xml:"sysstat"`
		Host    struct {
			Nodename   string `xml:"nodename,attr"`
			Statistics struct {
				Timestamps []struct {
					Time string `xml:"time,attr"`
					CPU  struct {
						Rows []struct {
							User   string `xml:"user,attr"`
							IOWait string `xml:"iowait,attr"`
						} `xml:"cpu"`
					} `xml:"cpu-load"`
				} `xml:"timestamp"`
			} `xml:"statistics"`
		} `xml:"host"`
	}
	if err := xml.Unmarshal(data, &doc); err != nil {
		t.Fatalf("sar xml does not parse: %v", err)
	}
	if doc.Host.Nodename != "mysql" {
		t.Fatalf("nodename %q", doc.Host.Nodename)
	}
	if len(doc.Host.Statistics.Timestamps) < 8 {
		t.Fatalf("only %d timestamps", len(doc.Host.Statistics.Timestamps))
	}
}

func TestSARTextRepeatsColumnHeader(t *testing.T) {
	cfg := Config{Interval: 20 * time.Millisecond, Kinds: []Kind{SARText}}
	_, set := runMonitored(t, cfg)
	data, err := os.ReadFile(set.Paths["tomcat/sar"])
	if err != nil {
		t.Fatal(err)
	}
	headers := strings.Count(string(data), "%user")
	// 1s at 20ms = 50 rows, header every 20 rows → at least 2 headers.
	if headers < 2 {
		t.Fatalf("column header repeated %d times, want >=2", headers)
	}
}

func TestCollectlCSVReflectsLoad(t *testing.T) {
	cfg := Config{Interval: 50 * time.Millisecond, Kinds: []Kind{CollectlCSV}}
	_, set := runMonitored(t, cfg)
	data, err := os.ReadFile(set.Paths["mysql/collectl-csv"])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	sawCPU := false
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 18 {
			t.Fatalf("row has %d fields, want 18: %s", len(fields), ln)
		}
		if fields[2] != "0.00" {
			sawCPU = true
		}
	}
	if !sawCPU {
		t.Fatal("mysql CPU never non-zero under load")
	}
}

func TestIostatReports(t *testing.T) {
	cfg := Config{Interval: 100 * time.Millisecond, Kinds: []Kind{Iostat}}
	_, set := runMonitored(t, cfg)
	data, err := os.ReadFile(set.Paths["mysql/iostat"])
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Count(s, "avg-cpu:") < 8 {
		t.Fatalf("iostat has %d reports", strings.Count(s, "avg-cpu:"))
	}
	if !strings.Contains(s, "sda") {
		t.Fatal("no device rows")
	}
}

func TestBadConfigs(t *testing.T) {
	sys := ntier.New(ntier.DefaultConfig())
	if _, err := Start(sys, t.TempDir(), Config{Interval: 0, Kinds: allKinds}, 1); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := Start(sys, t.TempDir(), Config{Interval: time.Second}, 1); err == nil {
		t.Fatal("empty kinds accepted")
	}
}

func TestFileNameMapping(t *testing.T) {
	cases := map[Kind]string{
		SARText:       "db1_sar.log",
		SARXML:        "db1_sar.xml",
		Iostat:        "db1_iostat.log",
		CollectlPlain: "db1_collectl.log",
		CollectlCSV:   "db1_collectl.csv",
	}
	for kind, want := range cases {
		if got := fileName("db1", kind); got != want {
			t.Fatalf("fileName(db1,%v) = %q, want %q", kind, got, want)
		}
	}
}
