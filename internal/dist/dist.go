// Package dist provides seeded random variates used by the simulated
// testbed: exponential think times, lognormal service demands, bounded
// Pareto tails, and weighted discrete choices. Every generator draws from
// an explicit *Source so that a given seed reproduces a run exactly.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Source wraps math/rand with the derivation helpers the simulator needs.
// It is not safe for concurrent use; the single-threaded DES engine owns it.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a deterministic source for the given seed.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Derive returns an independent child source whose seed is a stable
// function of the parent seed and the label. Subsystems (per-tier service
// times, think times, injector timing) each derive their own stream so that
// adding draws in one subsystem does not perturb another.
func (s *Source) Derive(label string) *Source {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	mix := int64(h) ^ s.rng.Int63()
	return NewSource(mix)
}

// Float64 returns a uniform variate in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0,n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(s.rng.ExpFloat64() * float64(mean))
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)))
}

// Lognormal returns a lognormal variate with the given median and sigma
// (the shape parameter of the underlying normal). Service demands use this
// shape: most executions cluster near the median with a mild right tail.
func (s *Source) Lognormal(median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	mu := math.Log(float64(median))
	v := math.Exp(mu + sigma*s.rng.NormFloat64())
	return time.Duration(v)
}

// Choice draws an index in [0,len(weights)) with probability proportional
// to the weight. It panics on an empty or non-positive-total weight vector,
// because a silent fallback would bias the workload mix.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("dist: negative weight %v", w))
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("dist: Choice with empty or zero-total weights")
	}
	x := s.rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (s *Source) Jitter(d time.Duration, frac float64) time.Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	f := 1 + frac*(2*s.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}
