package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/gt-elba/milliscope/internal/bottleneck"
	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/resmon"
	"github.com/gt-elba/milliscope/internal/rubbos"
)

// Duration is a time.Duration that decodes from JSON as either a Go
// duration string ("350ms") or an integer nanosecond count.
type Duration time.Duration

// D returns the standard-library value.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string ("1.2s").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "350ms" or a nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	ns, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		return fmt.Errorf("scenario: duration %s: %w", b, err)
	}
	*d = Duration(ns)
	return nil
}

// InjectorSpec is the declarative form of one bottleneck injector, and the
// injector itself (Inject). Kind selects the fault family; the remaining
// fields are consulted per kind (injectorKinds declares what each kind
// requires and how it arms the simulator).
type InjectorSpec struct {
	Kind string `json:"kind"`
	// Node names the target node (dirty-page-surge, jvm-gc, dvfs,
	// crash-loop); Tier the tier whose downstream conn pool is seized.
	Node string `json:"node,omitempty"`
	Tier string `json:"tier,omitempty"`
	// Src/Dst name the link for net-jitter.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// At is the injection instant; Duration the episode length.
	At       Duration `json:"at"`
	Duration Duration `json:"duration,omitempty"`
	// Kind-specific magnitudes.
	Hold     Duration `json:"hold,omitempty"`      // lock-convoy
	Extra    Duration `json:"extra,omitempty"`     // net-jitter
	Pause    Duration `json:"pause,omitempty"`     // jvm-gc
	Outage   Duration `json:"outage,omitempty"`    // crash-loop
	Period   Duration `json:"period,omitempty"`    // crash-loop
	Speed    float64  `json:"speed,omitempty"`     // dvfs
	MissProb float64  `json:"miss_prob,omitempty"` // cache-stampede
	BurstKB  int      `json:"burst_kb,omitempty"`  // dirty-page-surge
	ReadKB   int      `json:"read_kb,omitempty"`   // cache-stampede
	Held     int      `json:"held,omitempty"`      // conn-pool-seize
	Count    int      `json:"count,omitempty"`     // crash-loop
}

// Verdict is one expected diagnosis: the classifier must raise Kind at
// Node in a window overlapping [From−Tol, To+Tol] (trial-relative).
type Verdict struct {
	Kind string   `json:"kind"`
	Node string   `json:"node"`
	From Duration `json:"from"`
	To   Duration `json:"to"`
	Tol  Duration `json:"tol,omitempty"`
	// Degraded asserts the diagnosis ran on partial evidence, with every
	// Missing entry appearing as a substring of some missing source.
	Degraded bool     `json:"degraded,omitempty"`
	Missing  []string `json:"missing,omitempty"`
}

// MemTuning overrides one node's page-cache configuration (the dirty-page
// scenarios shrink the watermark gap so a surge triggers recycling).
type MemTuning struct {
	HighWaterKB  float64  `json:"high_water_kb"`
	LowWaterKB   float64  `json:"low_water_kb"`
	DrainKBps    float64  `json:"drain_kbps"`
	FlushWorkers int      `json:"flush_workers,omitempty"`
	FlushSlice   Duration `json:"flush_slice,omitempty"`
}

// Spec is one entry of the declarative fault catalogue: a fully
// reproducible trial — injectors, n-tier workload, seed — plus the verdict
// the diagnosis must reach, so each entry doubles as an executable soak
// test of the classifier. Build turns it into the ExperimentConfig
// RunExperiment runs.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Family labels the fault class for the catalogue listing.
	Family string `json:"family"`
	// Seed drives every random stream of the run — simulator and
	// injectors alike — so identical specs yield identical verdicts.
	Seed     int64    `json:"seed"`
	Users    int      `json:"users"`
	Think    Duration `json:"think,omitempty"`
	Duration Duration `json:"duration"`
	// Mix is the RUBBoS workload mix: "readwrite" (default) or "browse".
	Mix string `json:"mix,omitempty"`
	// MemTuning maps node name → page-cache overrides.
	MemTuning map[string]MemTuning `json:"mem_tuning,omitempty"`
	Injectors []InjectorSpec       `json:"injectors"`
	// DeleteTiers removes the listed tiers' event logs after the run
	// (faults.KindDeleteTier) — the crash-loop scenarios' degraded path.
	DeleteTiers []string `json:"delete_tiers,omitempty"`
	// Expect lists required verdicts; empty asserts a clean diagnosis
	// (no VLRT windows at all).
	Expect []Verdict `json:"expect"`
}

// DecodeSpec parses and validates one JSON scenario spec. It never panics:
// malformed input, unknown fields, unknown injector kinds and impossible
// parameters all return errors (FuzzScenarioConfigDecode holds it to that).
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as indented JSON (the inverse of DecodeSpec).
func (s *Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' && i > 0
		if !ok {
			return false
		}
	}
	return true
}

func knownTier(name string) bool {
	for _, t := range Tiers {
		if t == name {
			return true
		}
	}
	return false
}

// Validate checks the spec is well-formed and buildable, so Build and the
// ntier fault methods its injectors arm never panic on a validated spec.
func (s *Spec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("scenario: invalid name %q (want kebab-case)", s.Name)
	}
	if s.Description == "" {
		return fmt.Errorf("scenario %s: missing description", s.Name)
	}
	if s.Seed == 0 {
		return fmt.Errorf("scenario %s: seed must be explicit and non-zero", s.Name)
	}
	if s.Users <= 0 {
		return fmt.Errorf("scenario %s: users %d", s.Name, s.Users)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: non-positive duration %v", s.Name, s.Duration.D())
	}
	if s.Think < 0 {
		return fmt.Errorf("scenario %s: negative think time %v", s.Name, s.Think.D())
	}
	switch s.Mix {
	case "", "readwrite", "browse":
	default:
		return fmt.Errorf("scenario %s: unknown mix %q", s.Name, s.Mix)
	}
	for node, tune := range s.MemTuning {
		if !knownTier(node) {
			return fmt.Errorf("scenario %s: mem tuning for unknown node %q", s.Name, node)
		}
		if tune.HighWaterKB <= 0 || tune.LowWaterKB <= 0 || tune.DrainKBps <= 0 {
			return fmt.Errorf("scenario %s: mem tuning for %s needs positive watermarks and drain", s.Name, node)
		}
		if tune.LowWaterKB >= tune.HighWaterKB {
			return fmt.Errorf("scenario %s: %s low watermark %v ≥ high %v",
				s.Name, node, tune.LowWaterKB, tune.HighWaterKB)
		}
		if tune.FlushWorkers < 0 || tune.FlushSlice < 0 {
			return fmt.Errorf("scenario %s: %s flush tuning negative", s.Name, node)
		}
	}
	for i := range s.Injectors {
		k, err := s.Injectors[i].kind()
		if err == nil {
			err = k.validate(&s.Injectors[i])
		}
		if err != nil {
			return fmt.Errorf("scenario %s: injector %d: %w", s.Name, i, err)
		}
	}
	for _, tier := range s.DeleteTiers {
		if !knownTier(tier) {
			return fmt.Errorf("scenario %s: delete unknown tier %q", s.Name, tier)
		}
	}
	for i, e := range s.Expect {
		if _, ok := ParseCauseKind(e.Kind); !ok {
			return fmt.Errorf("scenario %s: expect %d: unknown cause kind %q", s.Name, i, e.Kind)
		}
		if !knownTier(e.Node) {
			return fmt.Errorf("scenario %s: expect %d: unknown node %q", s.Name, i, e.Node)
		}
		if e.From < 0 || e.To <= e.From || e.Tol < 0 {
			return fmt.Errorf("scenario %s: expect %d: window [%v, %v] tol %v",
				s.Name, i, e.From.D(), e.To.D(), e.Tol.D())
		}
		if len(e.Missing) > 0 && !e.Degraded {
			return fmt.Errorf("scenario %s: expect %d: missing sources listed without degraded", s.Name, i)
		}
	}
	return nil
}

// injectorKind declares one fault family: the InjectorSpec.Kind that
// selects it, what a spec of that kind must hold, and how it arms the
// simulator (one ntier.System method per family). injectorKinds is the
// only list of kinds; a new family is one row.
type injectorKind struct {
	name     string
	validate func(in *InjectorSpec) error
	arm      func(in *InjectorSpec, sys *ntier.System)
}

var injectorKinds = []injectorKind{
	{"db-log-flush", (*InjectorSpec).needWindow, func(in *InjectorSpec, sys *ntier.System) {
		sys.FlushRedoLog(in.from(), in.Duration.D())
	}},
	{"dirty-page-surge", func(in *InjectorSpec) error {
		if !knownTier(in.Node) {
			return fmt.Errorf("dirty-page-surge: unknown node %q", in.Node)
		}
		if in.At < 0 || in.BurstKB <= 0 {
			return fmt.Errorf("dirty-page-surge: at=%v burst=%dKB", in.At.D(), in.BurstKB)
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.SurgeDirtyPages(in.Node, in.from(), in.BurstKB)
	}},
	{"jvm-gc", func(in *InjectorSpec) error {
		if !knownTier(in.Node) {
			return fmt.Errorf("jvm-gc: unknown node %q", in.Node)
		}
		if in.At < 0 || in.Pause <= 0 {
			return fmt.Errorf("jvm-gc: at=%v pause=%v", in.At.D(), in.Pause.D())
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.PauseGC(in.Node, in.from(), in.Pause.D())
	}},
	{"dvfs", func(in *InjectorSpec) error {
		if !knownTier(in.Node) {
			return fmt.Errorf("dvfs: unknown node %q", in.Node)
		}
		if err := in.needWindow(); err != nil {
			return err
		}
		if in.Speed <= 0 || in.Speed >= 1 {
			return fmt.Errorf("dvfs: speed %v outside (0, 1)", in.Speed)
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.Downclock(in.Node, in.Speed, in.from(), in.to())
	}},
	{"conn-pool-seize", func(in *InjectorSpec) error {
		// The last tier has no downstream pool.
		if !knownTier(in.Tier) || in.Tier == Tiers[len(Tiers)-1] {
			return fmt.Errorf("conn-pool-seize: tier %q has no downstream pool", in.Tier)
		}
		if err := in.needWindow(); err != nil {
			return err
		}
		if in.Held <= 0 {
			return fmt.Errorf("conn-pool-seize: held %d", in.Held)
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.SeizeConns(in.Tier, in.Held, in.from(), in.to())
	}},
	{"lock-convoy", func(in *InjectorSpec) error {
		if err := in.needWindow(); err != nil {
			return err
		}
		if in.Hold <= 0 {
			return fmt.Errorf("lock-convoy: hold %v", in.Hold.D())
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.ArmLockConvoy(in.from(), in.to(), in.Hold.D())
	}},
	{"cache-stampede", func(in *InjectorSpec) error {
		if err := in.needWindow(); err != nil {
			return err
		}
		if in.MissProb <= 0 || in.MissProb > 1 {
			return fmt.Errorf("cache-stampede: miss probability %v", in.MissProb)
		}
		if in.ReadKB <= 0 {
			return fmt.Errorf("cache-stampede: read %dKB", in.ReadKB)
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.ArmCacheExpiry(in.from(), in.to(), in.MissProb, in.ReadKB)
	}},
	{"net-jitter", func(in *InjectorSpec) error {
		for _, n := range []string{in.Src, in.Dst} {
			if n != "client" && !knownTier(n) {
				return fmt.Errorf("net-jitter: unknown node %q", n)
			}
		}
		if err := in.needWindow(); err != nil {
			return err
		}
		if in.Extra <= 0 {
			return fmt.Errorf("net-jitter: extra %v", in.Extra.D())
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		sys.ArmNetJitter(in.Src, in.Dst, in.from(), in.to(), in.Extra.D())
	}},
	{"crash-loop", func(in *InjectorSpec) error {
		if !knownTier(in.Node) {
			return fmt.Errorf("crash-loop: unknown node %q", in.Node)
		}
		if in.At < 0 || in.Outage <= 0 || in.Count <= 0 {
			return fmt.Errorf("crash-loop: at=%v outage=%v count=%d", in.At.D(), in.Outage.D(), in.Count)
		}
		if in.Count > 1 && in.Period <= in.Outage {
			return fmt.Errorf("crash-loop: period %v within outage %v", in.Period.D(), in.Outage.D())
		}
		return nil
	}, func(in *InjectorSpec, sys *ntier.System) {
		// One worker stall per restart, Period apart.
		for i := 0; i < in.Count; i++ {
			from := in.from() + des.Time(i)*des.Time(in.Period)
			sys.StallWorkers(in.Node, from, from+des.Time(in.Outage))
		}
	}},
}

// from and to bound the episode [At, At+Duration) on the simulator clock.
func (in *InjectorSpec) from() des.Time { return des.Time(in.At) }
func (in *InjectorSpec) to() des.Time   { return des.Time(in.At + in.Duration) }

// needWindow requires a non-negative start and a positive episode length.
func (in *InjectorSpec) needWindow() error {
	if in.At < 0 || in.Duration <= 0 {
		return fmt.Errorf("%s: window at=%v dur=%v", in.Kind, in.At.D(), in.Duration.D())
	}
	return nil
}

// kind finds the row of injectorKinds the spec selects.
func (in *InjectorSpec) kind() (*injectorKind, error) {
	names := make([]string, len(injectorKinds))
	for i := range injectorKinds {
		if injectorKinds[i].name == in.Kind {
			return &injectorKinds[i], nil
		}
		names[i] = injectorKinds[i].name
	}
	return nil, fmt.Errorf("unknown injector kind %q (known: %v)", in.Kind, names)
}

// Inject arms the fault on the system through its kind's row, so a spec
// is itself the injector an ExperimentConfig carries. It panics on a spec
// Validate would refuse.
func (in InjectorSpec) Inject(sys *ntier.System) {
	k, err := in.kind()
	if err != nil {
		panic(err)
	}
	k.arm(&in, sys)
}

// Build turns a validated spec into a runnable experiment configuration
// writing its monitor logs under logDir. Every random stream — workload,
// network, DB and injector draws — derives from Spec.Seed.
func (s *Spec) Build(logDir string) (ExperimentConfig, error) {
	if err := s.Validate(); err != nil {
		return ExperimentConfig{}, err
	}
	cfg := ntier.DefaultConfig()
	cfg.Users = s.Users
	cfg.Duration = s.Duration.D()
	cfg.Seed = s.Seed
	if s.Think > 0 {
		cfg.ThinkTime = s.Think.D()
	}
	if s.Mix == "browse" {
		cfg.Mix = rubbos.BrowseOnly
	} else {
		cfg.Mix = rubbos.ReadWrite
	}
	for _, spec := range []*ntier.TierSpec{&cfg.Web, &cfg.App, &cfg.Mid, &cfg.DB} {
		tune, ok := s.MemTuning[spec.Node.Name]
		if !ok {
			continue
		}
		spec.Node.Memory.HighWaterKB = tune.HighWaterKB
		spec.Node.Memory.LowWaterKB = tune.LowWaterKB
		spec.Node.Memory.DrainKBps = tune.DrainKBps
		spec.Node.Memory.FlushWorkers = tune.FlushWorkers
		if spec.Node.Memory.FlushWorkers == 0 {
			spec.Node.Memory.FlushWorkers = spec.Node.Cores
		}
		if tune.FlushSlice > 0 {
			spec.Node.Memory.FlushSlice = tune.FlushSlice.D()
		}
	}
	injectors := make([]bottleneck.Injector, len(s.Injectors))
	for i, in := range s.Injectors {
		injectors[i] = in
	}
	rm := resmon.DefaultConfig()
	return ExperimentConfig{
		Name:          s.Name,
		Ntier:         cfg,
		EventMonitors: true,
		Resmon:        &rm,
		Injectors:     injectors,
		LogDir:        logDir,
	}, nil
}
