package faults

import (
	"math"
	"testing"
	"time"
)

func TestEffectiveFracShape(t *testing.T) {
	o := Overload{BurstAt: 0.2, BurstUntil: 0.5, BurstFactor: 10}
	if got := o.EffectiveFrac(0); got != 0 {
		t.Errorf("f(0)=%v, want 0", got)
	}
	if got := o.EffectiveFrac(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("f(1)=%v, want 1", got)
	}
	// Monotonic and continuous.
	prev := 0.0
	for f := 0.0; f <= 1.0; f += 0.001 {
		g := o.EffectiveFrac(f)
		if g < prev {
			t.Fatalf("not monotonic at f=%v: %v < %v", f, g, prev)
		}
		if g-prev > 0.01 {
			t.Fatalf("jump at f=%v: %v -> %v", f, prev, g)
		}
		prev = g
	}
	// The burst rate must be BurstFactor× the baseline rate.
	eps := 1e-6
	base := (o.EffectiveFrac(0.1+eps) - o.EffectiveFrac(0.1)) / eps
	burst := (o.EffectiveFrac(0.3+eps) - o.EffectiveFrac(0.3)) / eps
	if ratio := burst / base; math.Abs(ratio-10) > 0.01 {
		t.Errorf("burst/base rate ratio = %.3f, want 10", ratio)
	}
}

func TestEffectiveFracIdentityWhenZero(t *testing.T) {
	var o Overload
	for _, f := range []float64{0, 0.25, 0.7, 1} {
		if got := o.EffectiveFrac(f); got != f {
			t.Errorf("zero overload: f(%v)=%v, want identity", f, got)
		}
	}
}

func TestParseOverload(t *testing.T) {
	o, err := ParseOverload("at=0.2,until=0.5,factor=12,delay=300us")
	if err != nil {
		t.Fatal(err)
	}
	want := Overload{BurstAt: 0.2, BurstUntil: 0.5, BurstFactor: 12, ConsumerDelay: 300 * time.Microsecond}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
	if o, err := ParseOverload(""); err != nil || !o.Zero() {
		t.Errorf("empty spec: %+v, %v; want zero overload", o, err)
	}
	for _, bad := range []string{"at=0.5,until=0.2,factor=10", "factor=0.5,at=0.1,until=0.2", "bogus=1", "at"} {
		if _, err := ParseOverload(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}
