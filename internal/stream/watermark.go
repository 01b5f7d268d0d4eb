package stream

import (
	"math"
	"sync"
)

// watermark tracks per-source event-time frontiers and derives the low
// watermark: the event time below which every live source has reported,
// minus the clock-skew bound of the fault model. Windows close — and the
// detector classifies — only behind the low watermark, so a verdict never
// rests on a tier whose log simply had not caught up yet.
type watermark struct {
	mu     sync.Mutex
	skewUS int64
	fronts map[string]int64
	done   map[string]bool
}

// newWatermark builds a tracker with the given clock-skew bound in
// microseconds (the PR-1 fault model skews tier clocks by up to ±skew).
func newWatermark(skewUS int64) *watermark {
	return &watermark{
		skewUS: skewUS,
		fronts: make(map[string]int64),
		done:   make(map[string]bool),
	}
}

// Register adds a source with no data yet. An unregistered source never
// holds the watermark back; a registered silent one does — by design, a
// tier that exists but has not reported must block window closure.
func (w *watermark) Register(src string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.fronts[src]; !ok {
		w.fronts[src] = 0
	}
}

// Observe advances a source's frontier to the given event time (µs).
func (w *watermark) Observe(src string, us int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if us > w.fronts[src] {
		w.fronts[src] = us
	}
}

// Finish marks a source complete (EOF at shutdown, budget rejection, or
// parser failure): it stops constraining the low watermark.
func (w *watermark) Finish(src string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done[src] = true
}

// Reopen clears a source's done mark: a remote agent that disconnected
// mid-stream (its sources finished so the watermark could advance) has
// come back and will constrain window closure again.
func (w *watermark) Reopen(src string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.done, src)
}

// Low returns the low watermark and whether it is meaningful yet: false
// while any live source has reported nothing (or none exist), MaxInt64
// when every source has finished.
func (w *watermark) Low() (int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.fronts) == 0 {
		return 0, false
	}
	low := int64(math.MaxInt64)
	live := false
	for src, f := range w.fronts {
		if w.done[src] {
			continue
		}
		if f == 0 {
			return 0, false
		}
		if f < low {
			low = f
		}
		live = true
	}
	if !live {
		return math.MaxInt64, true
	}
	return low - w.skewUS, true
}

// MaxFrontier returns the most advanced frontier — the live edge. The gap
// between it and the low watermark is the pipeline's event-time lag.
func (w *watermark) MaxFrontier() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var max int64
	for _, f := range w.fronts {
		if f > max {
			max = f
		}
	}
	return max
}
