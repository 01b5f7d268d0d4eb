// Package fidelity is the load-aware degradation controller for the live
// pipeline: a hysteresis state machine over measurable pressure signals,
// plus the bounded ring buffer that keeps full-fidelity rows available for
// retroactive promotion while the pipeline runs degraded.
//
// The design follows the two-phase monitoring idea from the related work:
// a cheap coarse phase that is always on (per-window aggregates), and the
// expensive fine-grained phase (full row retention) engaged only where the
// coarse phase — here, the online millibottleneck detector — flags an
// anomaly. The controller decides which phase the steady state runs in;
// the ring buffer is what makes the retroactive switch lossless inside the
// anomaly neighbourhood.
package fidelity

// State is the pipeline's fidelity level. Order matters: transitions move
// one step at a time, so a spike never jumps FULL→SHED without passing
// through AGGREGATE (and its ring retention) first.
type State int

const (
	// Full retains every parsed row in the warehouse — the PR-2 behavior.
	Full State = iota
	// Aggregate folds rows into per-window aggregates; full-fidelity rows
	// survive only in the bounded per-source rings, awaiting promotion.
	Aggregate
	// Shed drops row retention entirely (aggregates still accumulate);
	// the last resort when retained-row memory itself is the pressure.
	Shed
)

// MarshalText renders the state by name in JSON status bodies; its value
// is the number the fidelity gauges export.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

func (s State) String() string {
	switch s {
	case Full:
		return "full"
	case Aggregate:
		return "aggregate"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Pressure is one sample of the three load signals, each normalized so
// 1.0 means "at the configured budget".
type Pressure struct {
	// Queue is the parser→loader channel occupancy (len/cap).
	Queue float64
	// Lag is the event-time spread between the fastest source frontier and
	// the low watermark, over the lag budget.
	Lag float64
	// Mem is the retained-row count (warehouse rows + ring + rollup cells)
	// over the retention budget.
	Mem float64
}

// Score is the load signal driving FULL↔AGGREGATE: the worst of the
// throughput-ish signals. Any one budget being exhausted is reason enough
// to degrade — a full queue with zero lag still means the loader is the
// bottleneck.
func (p Pressure) Score() float64 {
	s := p.Queue
	if p.Lag > s {
		s = p.Lag
	}
	if p.Mem > s {
		s = p.Mem
	}
	return s
}

// Config sets the controller thresholds. Hysteresis is the gap between
// Enter and Exit: the score must fall well below the entry point before
// the controller recovers, so a load hovering at the threshold cannot
// flap the state every evaluation.
type Config struct {
	// Enter and Exit bound the FULL↔AGGREGATE transition on Score().
	Enter, Exit float64
	// ShedEnter and ShedExit bound AGGREGATE↔SHED on the Mem signal
	// alone: shedding protects the retention budget specifically —
	// a slow consumer is survivable in AGGREGATE, memory exhaustion
	// is not.
	ShedEnter, ShedExit float64
	// Dwell is how many consecutive evaluations must agree before a
	// transition commits — the time half of the hysteresis.
	Dwell int
}

func (c Config) withDefaults() Config {
	if c.Enter <= 0 {
		c.Enter = 0.75
	}
	if c.Exit <= 0 {
		c.Exit = 0.35
	}
	if c.ShedEnter <= 0 {
		c.ShedEnter = 0.95
	}
	if c.ShedExit <= 0 {
		c.ShedExit = 0.6
	}
	if c.Dwell <= 0 {
		c.Dwell = 4
	}
	return c
}

// Transition is one committed state change, sequence-stamped by
// evaluation count (not wall clock) so transition logs are deterministic
// under test.
type Transition struct {
	From, To State
	// Seq is the evaluation counter at commit time.
	Seq int64
	// Score is the driving signal's value at commit time.
	Score float64
}

// Controller is the hysteresis state machine. It is not safe for
// concurrent use: the loader goroutine owns it, and snapshots travel
// through the pipeline's status path.
type Controller struct {
	cfg    Config
	state  State
	seq    int64
	want   State
	streak int
	log    []Transition
}

// NewController starts a controller in FULL.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// State returns the current fidelity level.
func (c *Controller) State() State { return c.state }

// Transitions returns the committed transition log.
func (c *Controller) Transitions() []Transition {
	out := make([]Transition, len(c.log))
	copy(out, c.log)
	return out
}

// Eval folds one pressure sample and returns the (possibly new) state and
// whether this call committed a transition. A transition needs Dwell
// consecutive samples pointing at the same adjacent state; any sample
// that disagrees resets the streak.
func (c *Controller) Eval(p Pressure) (State, bool) {
	c.seq++
	want := c.desired(p)
	if want == c.state {
		c.streak = 0
		return c.state, false
	}
	if want != c.want {
		c.want = want
		c.streak = 0
	}
	c.streak++
	if c.streak < c.cfg.Dwell {
		return c.state, false
	}
	score := p.Score()
	if (c.state == Aggregate && want == Shed) || c.state == Shed {
		score = p.Mem
	}
	c.log = append(c.log, Transition{From: c.state, To: want, Seq: c.seq, Score: score})
	c.state = want
	c.streak = 0
	return c.state, true
}

// desired maps a pressure sample to the state the controller would rather
// be in, one step away from the current state at most.
func (c *Controller) desired(p Pressure) State {
	switch c.state {
	case Full:
		if p.Score() >= c.cfg.Enter {
			return Aggregate
		}
	case Aggregate:
		if p.Mem >= c.cfg.ShedEnter {
			return Shed
		}
		if p.Score() < c.cfg.Exit {
			return Full
		}
	case Shed:
		if p.Mem < c.cfg.ShedExit {
			return Aggregate
		}
	}
	return c.state
}
