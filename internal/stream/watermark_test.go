package stream

import (
	"math"
	"testing"
)

func TestWatermarkLow(t *testing.T) {
	w := newWatermark(2000) // 2ms skew bound

	if _, ok := w.Low(); ok {
		t.Fatal("empty watermark must not be meaningful")
	}

	w.Register("a")
	w.Register("b")
	if _, ok := w.Low(); ok {
		t.Fatal("registered-but-silent sources must hold the watermark")
	}

	w.Observe("a", 10_000_000)
	if _, ok := w.Low(); ok {
		t.Fatal("one silent source must still hold the watermark")
	}

	w.Observe("b", 8_000_000)
	low, ok := w.Low()
	if !ok || low != 8_000_000-2000 {
		t.Fatalf("low = %d,%v; want %d", low, ok, 8_000_000-2000)
	}

	// Frontiers only move forward.
	w.Observe("b", 7_000_000)
	if low, _ := w.Low(); low != 8_000_000-2000 {
		t.Fatalf("low moved backwards to %d", low)
	}

	w.Observe("b", 12_000_000)
	if low, _ := w.Low(); low != 10_000_000-2000 {
		t.Fatalf("low = %d, want %d (a is now slowest)", low, 10_000_000-2000)
	}

	// A finished source stops constraining the watermark.
	w.Finish("a")
	if low, _ := w.Low(); low != 12_000_000-2000 {
		t.Fatalf("low = %d, want %d after finishing a", low, 12_000_000-2000)
	}

	w.Finish("b")
	if low, ok := w.Low(); !ok || low != math.MaxInt64 {
		t.Fatalf("all-finished watermark = %d,%v; want MaxInt64", low, ok)
	}

	if mf := w.MaxFrontier(); mf != 12_000_000 {
		t.Fatalf("max frontier = %d, want 12000000", mf)
	}
}

func TestWatermarkLateRegistrationHolds(t *testing.T) {
	w := newWatermark(0)
	w.Register("a")
	w.Observe("a", 5_000_000)
	if low, ok := w.Low(); !ok || low != 5_000_000 {
		t.Fatalf("low = %d,%v", low, ok)
	}
	// A tier's log appears late: until it reports, nothing may close.
	w.Register("late")
	if _, ok := w.Low(); ok {
		t.Fatal("late registration must hold the watermark until it reports")
	}
	w.Observe("late", 1_000_000)
	if low, _ := w.Low(); low != 1_000_000 {
		t.Fatalf("low = %d, want 1000000", low)
	}
}
