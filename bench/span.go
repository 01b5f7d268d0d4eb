package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer's public function.
// Spans are recorded here, in the harness, around those calls; spans inside
// the program are a later change (ROADMAP item 4). Times are nanoseconds
// since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until write. It belongs to one goroutine:
// the parent of a new span is whichever span that goroutine has open.
type recorder struct {
	t0    time.Time
	rep   int
	spans []span
	open  []int // indexes into spans, innermost last
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times fn under a span named name and returns how long it took.
func (r *recorder) do(name string, fn func()) time.Duration {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Name: name, Rep: r.rep})
	r.open = append(r.open, idx)
	start := time.Now()
	fn()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.spans[idx].Start = start.Sub(r.t0).Nanoseconds()
	r.spans[idx].End = end.Sub(r.t0).Nanoseconds()
	return end.Sub(start)
}

// selfTimes maps span ID to its self time: the span's duration minus the
// part of its interval that its direct children cover. Children may
// overlap each other (parallel work) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type ival struct{ lo, hi int64 }
	kids := make(map[int][]ival)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], ival{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, iv := range ivs {
			if iv.hi <= end {
				continue
			}
			covered += iv.hi - max(iv.lo, end)
			end = iv.hi
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// traceFile is the shape of trace.json.
type traceFile struct {
	Spans []span `json:"spans"`
	// SelfNS sums self time by span name: where the traced run's wall
	// time went, layer by layer.
	SelfNS map[string]int64 `json:"self_ns_by_name"`
}

func (r *recorder) write(path string) error {
	self := selfTimes(r.spans)
	byName := make(map[string]int64)
	for _, s := range r.spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.MarshalIndent(traceFile{Spans: r.spans, SelfNS: byName}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
