package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// readRecords loads a result file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// values collects one end-to-end metric of one workload over a set of
// runs. Smoke runs never count, and a run marked invalid does not count
// towards the latencies it could not measure properly.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		w := r.Workloads[workload]
		if w == nil || r.Quick {
			continue
		}
		if w.Invalid != "" && (metric == mLatP50 || metric == mLatP95) {
			continue
		}
		if s, ok := w.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

// Verdicts of compare.
const (
	vOK         = "ok"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// judge compares the medians of a base set A and a candidate set B of one
// metric. worse is how much B's median is worse than A's as a share of
// A's (negative when better). Where either set's own spread (quartile
// distance over median) exceeds the bound, a difference of that size
// cannot be told from noise: unresolved, not unchanged.
func judge(a, b []float64, better string, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == higher {
			worse = -worse
		}
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		verdict = vUnresolved
	case worse > bound:
		verdict = vRegressed
	default:
		verdict = vOK
	}
	return worse, verdict
}

// compareMain prints, per workload and end-to-end metric, both sets'
// medians and quartiles, B's median as a ratio of A's (A is the base), and
// the verdict under the bound BENCHMARK.json fixes. It exits 1 when any
// pairing regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench compare A.jsonl B.jsonl (A is the base)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare needs the bounds in BENCHMARK.json:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b []record
		if b, err = readRecords(args[1]); err == nil {
			return printComparison(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(spec *benchSpec, a, b []record) int {
	regressed := 0
	fmt.Printf("%-13s %-21s %5s  %-38s %-38s %9s %6s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3] n", "B median [q1, q3] n", "B/A", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, verdict := judge(va, vb, m.Better, m.Bound)
			if verdict == vRegressed {
				regressed++
			}
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			fmt.Printf("%-13s %-21s %5s  %-38s %-38s %8.4fx %5.0f%%  %s (%+.1f%% worse)\n",
				w.Name, m.Name, m.Unit, describe(va), describe(vb), ratio, 100*m.Bound, verdict, 100*worse)
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
