package main

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// The machines this benchmark runs on do not hold their speed: on the
// 2-vCPU guest it was built on, the same in-memory ingest takes anything
// between 0.62 s and 1.19 s depending on the minute, in phases that last
// for minutes, so whole runs (and whole sets of ten) land in a fast or a
// slow phase and no statistic within a run can tell a slow program from a
// slow minute. What can is a fixed piece of work timed next to every
// repetition: the calibration kernel below does what the pipeline does
// (split lines, parse numbers, intern and clone strings, allocate a record
// a line, sort) and slowed down and sped up with it to within a few percent
// where the raw times swung by more than half. Every timing the harness
// reports end to end is therefore divided by how slow the machine ran the
// kernel at that moment, relative to kernelRef: times are in seconds of a
// machine that runs the kernel in kernelRef, whatever minute it is.

// kernelRef is how long the kernel takes at slowness 1. The guest this was
// built on needs 26 to 48 ms depending on the minute; the constant only
// fixes the unit, so it must never change.
const kernelRef = 36 * time.Millisecond

// kernelLines is the synthetic log the kernel parses; xorshift, so the same
// everywhere.
var kernelLines = func() []string {
	lines := make([]string, 60000)
	x := uint64(88172645463325252)
	for i := range lines {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lines[i] = "10.1." + strconv.Itoa(int(x%250)) + " GET /rubbos/Story?id=" +
			strconv.FormatUint(x>>16%100000, 10) + " 200 " + strconv.FormatUint(x>>24%9000, 10) +
			" " + strconv.FormatUint(1491004800000000+x%40000000, 10)
	}
	return lines
}()

type kernelRecord struct {
	client, uri string
	bytes, ts   int64
}

// kernelSink keeps the compiler from discarding the kernel's work.
var kernelSink int64

// kernel runs the calibration work once and returns how long it took.
func kernel() time.Duration {
	start := time.Now()
	recs := make([]*kernelRecord, 0, 1024)
	intern := make(map[string]string)
	for _, line := range kernelLines {
		f := strings.Fields(line)
		r := &kernelRecord{uri: strings.Clone(f[2])}
		if c, ok := intern[f[0]]; ok {
			r.client = c
		} else {
			r.client = strings.Clone(f[0])
			intern[r.client] = r.client
		}
		r.bytes, _ = strconv.ParseInt(f[4], 10, 64)
		r.ts, _ = strconv.ParseInt(f[5], 10, 64)
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ts < recs[j].ts })
	kernelSink = recs[len(recs)/2].bytes
	return time.Since(start)
}

// speedometer times the kernel alongside a phase of measurement. A nil
// speedometer probes nothing and reports slowness 1: the traced run, whose
// per-layer numbers are raw, has none.
type speedometer struct {
	samples []float64     // kernel times, ns
	spent   time.Duration // total time spent probing
	mallocs uint64        // heap allocations the probes made
}

// probesPerStop is how many kernel runs one probe makes; single runs are
// too noisy (a collection may or may not fall into one).
const probesPerStop = 2

// probe runs the kernel and records how long it took.
func (s *speedometer) probe() {
	if s == nil {
		return
	}
	start := time.Now()
	n, _ := mallocsDuring(func() {
		for i := 0; i < probesPerStop; i++ {
			s.samples = append(s.samples, ns(kernel()))
		}
	})
	s.mallocs += uint64(n)
	s.spent += time.Since(start)
}

// slowness is how slow the machine ran the kernel over the phase, relative
// to kernelRef: the median probe over the reference.
func (s *speedometer) slowness() float64 {
	if s == nil || len(s.samples) == 0 {
		return 1
	}
	return median(s.samples) / ns(kernelRef)
}
