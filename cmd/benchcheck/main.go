// Command benchcheck enforces the two absolute budgets that the pipeline
// benchmark under bench/ does not measure: it parses `go test -bench`
// output and checks it against the "ceilings" (upper bounds) and "floors"
// (lower bounds) declared in a budget file. BENCH_selfobs.json caps the
// self-telemetry overhead_pct at 3; BENCH_fidelity.json demands a 10x row
// reduction and caps the idle controller's overhead_pct at 10. A bound is
// a budget, not a drifting baseline: there is no tolerance. Performance
// regressions against a parent commit are bench/'s job (BENCHMARK.json).
//
// Usage:
//
//	benchcheck --input bench_output.txt BENCH_selfobs.json [BENCH_fidelity.json ...]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// budget is the gated part of a committed BENCH_*.json: per benchmark,
// per reported unit, an absolute bound. Every other field of the file is
// documentation.
type budget struct {
	Ceilings map[string]map[string]float64 `json:"ceilings"`
	Floors   map[string]map[string]float64 `json:"floors"`
}

// parseBenchOutput extracts value/unit pairs from benchmark result lines,
// keyed by the unit as printed:
//
//	BenchmarkSelfObsOverhead-4   3   4000000000 ns/op   1.750 overhead_pct ...
//
// The -N GOMAXPROCS suffix is stripped so budgets are CPU-count agnostic.
func parseBenchOutput(r *bufio.Scanner) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				metrics[fields[i+1]] = v
			}
		}
		out[name] = metrics
	}
	return out, r.Err()
}

// check compares measured results against one budget and returns the
// violations (empty = pass). A benchmark or metric missing from the run is
// a violation: a deleted or renamed benchmark must not pass forever.
func check(b budget, got map[string]map[string]float64) []string {
	var fails []string
	bound := func(bounds map[string]map[string]float64, kind string, broken func(v, limit float64) bool) {
		for name, limits := range bounds {
			m, ok := got[name]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: missing from bench output", name))
				continue
			}
			for key, limit := range limits {
				v, ok := m[key]
				if !ok {
					fails = append(fails, fmt.Sprintf("%s: metric %s missing from bench output", name, key))
				} else if broken(v, limit) {
					fails = append(fails, fmt.Sprintf("%s: %s = %.2f breaks absolute %s %.2f", name, key, v, kind, limit))
				}
			}
		}
	}
	bound(b.Ceilings, "ceiling", func(v, limit float64) bool { return v > limit })
	bound(b.Floors, "floor", func(v, limit float64) bool { return v < limit })
	return fails
}

func run() error {
	input := flag.String("input", "bench_output.txt", "`go test -bench` output to check")
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: benchcheck [--input bench_output.txt] BENCH_x.json [...]")
	}

	f, err := os.Open(*input)
	if err != nil {
		return err
	}
	defer f.Close()
	got, err := parseBenchOutput(bufio.NewScanner(f))
	if err != nil {
		return err
	}

	failed := false
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var b budget
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(b.Ceilings)+len(b.Floors) == 0 {
			return fmt.Errorf("%s: declares no ceilings or floors", path)
		}
		fails := check(b, got)
		if len(fails) == 0 {
			fmt.Printf("benchcheck: %s OK (%d bounds hold)\n", path, len(b.Ceilings)+len(b.Floors))
			continue
		}
		failed = true
		for _, msg := range fails {
			fmt.Printf("benchcheck: %s FAIL: %s\n", path, msg)
		}
	}
	if failed {
		return fmt.Errorf("benchmark outside its committed budget")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}
