package stream

import (
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// CheckEvidence hands fn every evidence p's detector builds, with the
// warehouse it was built from, on the loader goroutine before the
// evidence is used. Set it before Start.
func (p *Pipeline) CheckEvidence(fn func(*mscopedb.DB, *core.Evidence, []string, error)) {
	p.det.checkEvidence = fn
}
