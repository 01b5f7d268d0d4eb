package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Overload is the load-surge injector the fidelity controller is tested
// against: the replay producer compresses a slice of the trial into a
// burst (the arrival-rate spike), while the pipeline's consumer is
// throttled per record (the processing-rate collapse). Both knobs are
// deterministic — the same spec over the same staged logs replays the
// same byte schedule — so controller transitions are assertable in tests.
type Overload struct {
	// BurstAt and BurstUntil bound the burst as fractions of the replay's
	// wall-clock duration, 0 ≤ BurstAt < BurstUntil ≤ 1.
	BurstAt    float64
	BurstUntil float64
	// BurstFactor multiplies the byte rate inside the burst relative to
	// the rate outside it (a 10× surge replays ten seconds of trial per
	// baseline second).
	BurstFactor float64
	// ConsumerDelay throttles the pipeline loader by this much per
	// record — the slow-consumer half of the overload.
	ConsumerDelay time.Duration
}

// Validate rejects malformed specs.
func (o Overload) Validate() error {
	if o.BurstFactor != 0 || o.BurstAt != 0 || o.BurstUntil != 0 {
		if o.BurstFactor < 1 {
			return fmt.Errorf("faults: overload burst factor %.2f must be >= 1", o.BurstFactor)
		}
		if o.BurstAt < 0 || o.BurstUntil > 1 || o.BurstAt >= o.BurstUntil {
			return fmt.Errorf("faults: overload burst window [%.2f,%.2f] must satisfy 0 <= at < until <= 1",
				o.BurstAt, o.BurstUntil)
		}
	}
	if o.ConsumerDelay < 0 {
		return fmt.Errorf("faults: overload consumer delay must be >= 0")
	}
	return nil
}

// Zero reports whether the spec injects nothing.
func (o Overload) Zero() bool {
	return o.BurstFactor == 0 && o.BurstAt == 0 && o.BurstUntil == 0 && o.ConsumerDelay == 0
}

// EffectiveFrac maps a wall-clock replay fraction to the byte fraction a
// bursting replay should have written: the byte rate is 1 outside
// [BurstAt, BurstUntil] and BurstFactor inside, normalized so the whole
// trial still lands by f = 1. It is the integral of that piecewise rate —
// continuous, monotonic, deterministic.
func (o Overload) EffectiveFrac(f float64) float64 {
	if o.BurstFactor <= 1 {
		return f
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	integ := func(x float64) float64 {
		v := x
		if x > o.BurstAt {
			hi := x
			if hi > o.BurstUntil {
				hi = o.BurstUntil
			}
			v += (hi - o.BurstAt) * (o.BurstFactor - 1)
		}
		return v
	}
	return integ(f) / integ(1)
}

// ParseOverload parses the CLI spec "at=0.2,until=0.5,factor=12,delay=300us".
// Any key may be omitted; an empty spec is the zero Overload.
func ParseOverload(spec string) (Overload, error) {
	var o Overload
	if strings.TrimSpace(spec) == "" {
		return o, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return o, fmt.Errorf("faults: overload spec %q: want key=value pairs", part)
		}
		var err error
		switch kv[0] {
		case "at":
			o.BurstAt, err = strconv.ParseFloat(kv[1], 64)
		case "until":
			o.BurstUntil, err = strconv.ParseFloat(kv[1], 64)
		case "factor":
			o.BurstFactor, err = strconv.ParseFloat(kv[1], 64)
		case "delay":
			o.ConsumerDelay, err = time.ParseDuration(kv[1])
		default:
			return o, fmt.Errorf("faults: overload spec: unknown key %q (want at, until, factor, delay)", kv[0])
		}
		if err != nil {
			return o, fmt.Errorf("faults: overload spec %q: %v", part, err)
		}
	}
	return o, o.Validate()
}
