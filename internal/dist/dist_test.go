package dist

import (
	"math"
	"testing"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Two children with different labels must produce different streams,
	// and the same label from identically-seeded parents the same stream.
	p1 := NewSource(42)
	p2 := NewSource(42)
	c1 := p1.Derive("think")
	c2 := p2.Derive("think")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("same-label children from same seed diverged")
		}
	}
	d1 := NewSource(42).Derive("think")
	d2 := NewSource(42).Derive("service")
	same := true
	for i := 0; i < 10; i++ {
		if d1.Float64() != d2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently-labelled children produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(1)
	const n = 20000
	mean := 10 * time.Millisecond
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += s.Exp(mean)
	}
	got := float64(sum) / n
	want := float64(mean)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical mean %v, want ~%v", time.Duration(got), mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	s := NewSource(1)
	if d := s.Exp(0); d != 0 {
		t.Fatalf("Exp(0) = %v, want 0", d)
	}
}

func TestUniformBounds(t *testing.T) {
	s := NewSource(3)
	lo, hi := 5*time.Millisecond, 9*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := s.Uniform(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("Uniform out of bounds: %v", d)
		}
	}
	if d := s.Uniform(hi, lo); d != hi {
		t.Fatalf("degenerate Uniform = %v, want lo", d)
	}
}

func TestLognormalMedian(t *testing.T) {
	s := NewSource(9)
	const n = 20001
	med := 4 * time.Millisecond
	vals := make([]time.Duration, n)
	for i := range vals {
		vals[i] = s.Lognormal(med, 0.5)
	}
	// Median of samples should approximate med.
	lt := 0
	for _, v := range vals {
		if v < med {
			lt++
		}
	}
	frac := float64(lt) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestChoiceDistribution(t *testing.T) {
	s := NewSource(11)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Choice(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("choice %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestChoicePanics(t *testing.T) {
	s := NewSource(1)
	for _, weights := range [][]float64{nil, {}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%v) did not panic", weights)
				}
			}()
			s.Choice(weights)
		}()
	}
}

func TestChoiceNegativeWeightPanics(t *testing.T) {
	s := NewSource(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	s.Choice([]float64{1, -1})
}

func TestJitterBounds(t *testing.T) {
	s := NewSource(5)
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := s.Jitter(d, 0.2)
		if j < 80*time.Millisecond || j > 120*time.Millisecond {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if j := s.Jitter(d, 0); j != d {
		t.Fatalf("zero-frac jitter changed value: %v", j)
	}
}
