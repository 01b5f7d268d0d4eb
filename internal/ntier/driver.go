package ntier

import (
	"fmt"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/dist"
)

// Driver emulates the closed-loop RUBBoS client population: each user
// alternates exponential think time with one interaction chosen by the
// session Markov chain. New requests stop at the configured duration;
// in-flight requests drain naturally.
type Driver struct {
	sys      *System
	src      *dist.Source
	deadline des.Time
	states   []int

	// Completed holds every finished request in completion order.
	Completed []*Request
	issued    uint64
}

// newDriver builds the user population for the system's configuration.
func newDriver(sys *System) *Driver {
	root := dist.NewSource(sys.cfg.Seed)
	d := &Driver{
		sys:      sys,
		src:      root.Derive("driver"),
		deadline: des.Time(sys.cfg.Duration),
		states:   make([]int, sys.cfg.Users),
	}
	for i := range d.states {
		d.states[i] = sys.WL.Start()
	}
	return d
}

// Start schedules every user's first request, staggered across one think
// time to avoid a synchronized start.
func (d *Driver) Start() {
	for sess := 0; sess < d.sys.cfg.Users; sess++ {
		sess := sess
		delay := d.src.Uniform(0, d.sys.cfg.ThinkTime)
		d.sys.Eng.At(des.Time(delay), func() { d.step(sess) })
	}
}

// Issued returns the number of requests submitted.
func (d *Driver) Issued() uint64 { return d.issued }

func (d *Driver) step(sess int) {
	if d.sys.Eng.Now() >= d.deadline {
		return
	}
	d.states[sess] = d.sys.WL.Next(d.src, d.states[sess])
	ix := d.states[sess]
	req := &Request{
		Session:     sess,
		IxIndex:     ix,
		Interaction: d.sys.WL.Interaction(ix),
	}
	d.issued++
	d.sys.Submit(req, func() {
		d.Completed = append(d.Completed, req)
		think := d.src.Exp(d.sys.cfg.ThinkTime)
		d.sys.Eng.After(think, func() { d.step(sess) })
	})
}

// RunStats summarizes a completed trial.
type RunStats struct {
	Requests   int
	Duration   time.Duration
	Throughput float64 // requests per second over the issue window
	MeanRT     time.Duration
	P99RT      time.Duration
	MaxRT      time.Duration
}

// Stats computes client-observed statistics over completed requests,
// skipping a warmup prefix of the run (ramp-up).
func (d *Driver) Stats(warmup time.Duration) RunStats {
	var rts []time.Duration
	for _, r := range d.Completed {
		if r.SubmitAt < des.Time(warmup) {
			continue
		}
		rts = append(rts, time.Duration(r.DoneAt-r.SubmitAt))
	}
	window := d.sys.cfg.Duration - warmup
	st := RunStats{Requests: len(rts), Duration: window}
	if len(rts) == 0 {
		return st
	}
	st.Throughput = float64(len(rts)) / window.Seconds()
	var sum time.Duration
	for _, rt := range rts {
		sum += rt
		if rt > st.MaxRT {
			st.MaxRT = rt
		}
	}
	st.MeanRT = sum / time.Duration(len(rts))
	sorted := make([]time.Duration, len(rts))
	copy(sorted, rts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.P99RT = sorted[len(sorted)*99/100]
	return st
}

// String renders the stats for logs and CLI output.
func (s RunStats) String() string {
	return fmt.Sprintf("requests=%d throughput=%.1f req/s meanRT=%v p99RT=%v maxRT=%v",
		s.Requests, s.Throughput, s.MeanRT.Round(time.Microsecond),
		s.P99RT.Round(time.Microsecond), s.MaxRT.Round(time.Microsecond))
}

// Run executes a full trial: build driver, start background housekeeping,
// issue for cfg.Duration, then drain all in-flight work. It returns the
// driver for stats inspection.
func Run(sys *System) *Driver {
	d := newDriver(sys)
	sys.StartBackground(des.Time(sys.cfg.Duration))
	d.Start()
	sys.Eng.Run()
	return d
}
