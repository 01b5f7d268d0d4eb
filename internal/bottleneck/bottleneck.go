// Package bottleneck names what a trial arms on the simulated testbed
// before it runs. Every fault kind of the scenario catalogue is a method of
// ntier.System (internal/ntier/inject.go) that the catalogue's injector
// spec calls; this package keeps the Injector interface those specs satisfy
// and the paper's redo-log flush (Section V-A) as Go values, for corpora
// and tests that plant it without a spec.
package bottleneck

import (
	"fmt"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/ntier"
)

// Injector schedules a fault into an assembled system before the run starts.
type Injector interface {
	// Inject arms the fault on the system.
	Inject(sys *ntier.System)
}

// PeriodicDBLogFlush schedules recurring redo-log flushes: the natural
// behaviour the paper observed, where accumulated redo pages are flushed
// every so often and each flush is a fresh very short bottleneck. Count
// flushes fire at Start, Start+Period, ...
type PeriodicDBLogFlush struct {
	Start    des.Time
	Period   time.Duration
	Duration time.Duration
	Count    int
}

// Inject arms every occurrence.
func (f PeriodicDBLogFlush) Inject(sys *ntier.System) {
	if f.Count <= 0 || f.Period <= 0 {
		panic(fmt.Sprintf("bottleneck: periodic flush count=%d period=%v", f.Count, f.Period))
	}
	for i := 0; i < f.Count; i++ {
		sys.FlushRedoLog(f.Start+des.Time(i)*des.Time(f.Period), f.Duration)
	}
}
