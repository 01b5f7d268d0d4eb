package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/gt-elba/milliscope
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFidelityReduction-4	       3	2000000000 ns/op	       119.1 reduction_x	     36406 full_rows
BenchmarkSelfObsOverhead-4	       3	4000000000 ns/op	         1.750 overhead_pct	1950000000 disabled_ns	1990000000 instrumented_ns
PASS
ok  	github.com/gt-elba/milliscope	20.847s
`

func parse(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	got, err := parseBenchOutput(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchOutput(t *testing.T) {
	got := parse(t)
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	// The -4 GOMAXPROCS suffix must be stripped; units key the metrics.
	m, ok := got["BenchmarkSelfObsOverhead"]
	if !ok {
		t.Fatalf("BenchmarkSelfObsOverhead missing: %v", got)
	}
	for key, want := range map[string]float64{
		"ns/op": 4000000000, "overhead_pct": 1.75, "disabled_ns": 1950000000,
	} {
		if m[key] != want {
			t.Errorf("%s = %v, want %v", key, m[key], want)
		}
	}
}

func TestCheckBounds(t *testing.T) {
	got := parse(t)
	ceil := func(bench, key string, v float64) budget {
		return budget{Ceilings: map[string]map[string]float64{bench: {key: v}}}
	}
	floor := func(bench, key string, v float64) budget {
		return budget{Floors: map[string]map[string]float64{bench: {key: v}}}
	}
	cases := []struct {
		name  string
		b     budget
		fails int
	}{
		{"under ceiling passes", ceil("BenchmarkSelfObsOverhead", "overhead_pct", 3.0), 0},
		{"exact ceiling passes", ceil("BenchmarkSelfObsOverhead", "overhead_pct", 1.75), 0},
		{"over ceiling fails", ceil("BenchmarkSelfObsOverhead", "overhead_pct", 1.0), 1},
		{"ceiling: missing benchmark fails", ceil("BenchmarkGone", "overhead_pct", 3.0), 1},
		{"ceiling: missing metric fails", ceil("BenchmarkSelfObsOverhead", "nope", 3.0), 1},
		{"above floor passes", floor("BenchmarkFidelityReduction", "reduction_x", 10), 0},
		{"exact floor passes", floor("BenchmarkFidelityReduction", "reduction_x", 119.1), 0},
		{"below floor fails", floor("BenchmarkFidelityReduction", "reduction_x", 200), 1},
		{"floor: missing benchmark fails", floor("BenchmarkGone", "reduction_x", 1), 1},
		{"floor: missing metric fails", floor("BenchmarkFidelityReduction", "nope", 1), 1},
	}
	for _, tc := range cases {
		if fails := check(tc.b, got); len(fails) != tc.fails {
			t.Errorf("%s: %d failures, want %d: %v", tc.name, len(fails), tc.fails, fails)
		}
	}
}

// TestBudgetUnmarshal: the committed files carry documentation fields
// (date, corpus, per-benchmark notes) next to the bounds; only the bounds
// are read.
func TestBudgetUnmarshal(t *testing.T) {
	var b budget
	blob := `{"date":"2026-08-05","benchmarks":{"BenchmarkX":{"notes":"free text"}},
		"ceilings":{"BenchmarkSelfObsOverhead":{"overhead_pct":3.0}},
		"floors":{"BenchmarkFidelityReduction":{"reduction_x":10}}}`
	if err := json.Unmarshal([]byte(blob), &b); err != nil {
		t.Fatal(err)
	}
	if b.Ceilings["BenchmarkSelfObsOverhead"]["overhead_pct"] != 3.0 ||
		b.Floors["BenchmarkFidelityReduction"]["reduction_x"] != 10 {
		t.Fatalf("bounds lost: %+v", b)
	}
}
