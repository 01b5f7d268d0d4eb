// Package promfmt is the one place mscope renders Prometheus text
// exposition. Every HTTP surface (live pipeline, agent, collector,
// serve) builds its /metrics body through a Writer, which enforces the
// conventions the conformance tests pin: every family name carries the
// mscope_ prefix, every family emits exactly one # HELP and one # TYPE
// line immediately before its samples, and families never interleave.
// The same surfaces share their JSON bodies through WriteJSON, and their
// /healthz body through WriteHealth.
package promfmt

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// WriteJSON answers with v as an indented JSON body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// WriteHealth renders the readiness body every daemon's /healthz serves:
// each probe with its state, HTTP 200 iff ok.
func WriteHealth(w http.ResponseWriter, probes map[string]bool, ok bool) {
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, struct {
		OK     bool            `json:"ok"`
		Probes map[string]bool `json:"probes"`
	}{OK: ok, Probes: probes})
}

// Writer accumulates one exposition body. The zero value is ready to
// use.
type Writer struct {
	b        strings.Builder
	families map[string]bool
}

// Prefix is mandatory on every family name this package emits.
const Prefix = "mscope_"

func (w *Writer) header(name, typ, help string) {
	if !strings.HasPrefix(name, Prefix) {
		panic("promfmt: family " + name + " lacks the " + Prefix + " prefix")
	}
	if strings.ContainsAny(help, "\n") {
		panic("promfmt: help for " + name + " contains a newline")
	}
	if w.families == nil {
		w.families = make(map[string]bool)
	}
	if w.families[name] {
		panic("promfmt: family " + name + " emitted twice")
	}
	w.families[name] = true
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (w *Writer) sample(name, labels string, v float64) {
	w.b.WriteString(name)
	if labels != "" {
		w.b.WriteByte('{')
		w.b.WriteString(labels)
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.b.WriteByte('\n')
}

// Gauge emits a single-sample gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.header(name, "gauge", help)
	w.sample(name, "", v)
}

// Counter emits a single-sample counter family.
func (w *Writer) Counter(name, help string, v float64) {
	w.header(name, "counter", help)
	w.sample(name, "", v)
}

// Family is a labeled metric family: one header, many samples.
type Family struct {
	w    *Writer
	name string
}

// GaugeFamily opens a labeled gauge family. Emit samples with Label.
func (w *Writer) GaugeFamily(name, help string) *Family {
	w.header(name, "gauge", help)
	return &Family{w: w, name: name}
}

// CounterFamily opens a labeled counter family.
func (w *Writer) CounterFamily(name, help string) *Family {
	w.header(name, "counter", help)
	return &Family{w: w, name: name}
}

// Label emits one sample with a single key=value label pair; the value
// is quoted per the exposition format.
func (f *Family) Label(key, value string, v float64) {
	f.w.sample(f.name, key+"="+strconv.Quote(value), v)
}

// histogramBounds are every mscope histogram's upper bucket bounds, in seconds:
// a fixed 1-2-5 log scale, so a family scraped from several nodes sums by bucket.
var histogramBounds = [...]float64{.001, .002, .005, .01, .02, .05, .1, .2, .5, 1, 2, 5, 10, 20, 50}

// Histogram counts durations into histogramBounds; the zero value is ready.
type Histogram struct {
	counts [len(histogramBounds) + 1]atomic.Int64 // the last is +Inf
	sumUS  atomic.Int64
}

// Observe counts one duration; safe alongside a Writer rendering h.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(histogramBounds[:], d.Seconds())].Add(1)
	h.sumUS.Add(d.Microseconds())
}

// Histogram emits a histogram family: cumulative le buckets, then the sum
// in seconds and the count.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.header(name, "histogram", help)
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
		le := "+Inf"
		if i < len(histogramBounds) {
			le = strconv.FormatFloat(histogramBounds[i], 'g', -1, 64)
		}
		w.sample(name+"_bucket", `le="`+le+`"`, float64(n))
	}
	w.sample(name+"_sum", "", float64(h.sumUS.Load())/1e6)
	w.sample(name+"_count", "", float64(n))
}

// String returns the accumulated exposition body.
func (w *Writer) String() string { return w.b.String() }

// Lint validates an exposition body against the discipline Writer
// enforces, so handler tests can hold any surface — including ones
// composed from several writers — to the same contract. It checks that
// every sample's family was declared by an immediately preceding
// # HELP + # TYPE pair, that every family name carries the mscope_
// prefix, that no family is declared twice, and that samples of
// different families never interleave.
func Lint(text string) error {
	type state struct {
		help, typ, histogram bool
		samples              int
	}
	seen := make(map[string]*state)
	var current string // family whose block we are inside
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
			if seen[name] != nil {
				return fmt.Errorf("line %d: family %s declared twice", ln+1, name)
			}
			seen[name] = &state{help: true}
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || (fields[1] != "gauge" && fields[1] != "counter" && fields[1] != "histogram") {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name := fields[0]
			st := seen[name]
			if st == nil || !st.help || st.typ || current != name {
				return fmt.Errorf("line %d: TYPE for %s without immediately preceding HELP", ln+1, name)
			}
			st.typ, st.histogram = true, fields[1] == "histogram"
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("line %d: unexpected comment: %q", ln+1, line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if !strings.HasPrefix(name, Prefix) {
				return fmt.Errorf("line %d: sample %s lacks the %s prefix", ln+1, name, Prefix)
			}
			st := seen[name]
			// A histogram's samples carry its name plus _bucket, _sum or _count.
			if h := seen[current]; st == nil && h != nil && h.histogram && strings.HasPrefix(name, current+"_") {
				name, st = current, h
			}
			if st == nil || !st.typ {
				return fmt.Errorf("line %d: sample for undeclared family %s", ln+1, name)
			}
			if name != current {
				return fmt.Errorf("line %d: sample for %s interleaves into family %s's block", ln+1, name, current)
			}
			st.samples++
		}
	}
	var empty []string
	for name, st := range seen {
		if st.samples == 0 {
			empty = append(empty, name)
		}
	}
	if len(empty) > 0 {
		sort.Strings(empty)
		return fmt.Errorf("families declared with no samples: %s", strings.Join(empty, ", "))
	}
	return nil
}
