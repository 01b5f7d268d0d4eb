package core

import (
	"fmt"
	"time"
)

// Catalogue parameters shared by most entries: the Section V trial shape —
// a moderate closed-loop load that is healthy outside the injected
// episode.
const (
	stdUsers = 150
	stdThink = Duration(300 * time.Millisecond)
	stdDur   = Duration(12 * time.Second)
)

func dur(d time.Duration) Duration { return Duration(d) }

// builtin is the registered catalogue, ordered for `scenario list`, and the
// only place a trial is declared: the paper's four trials (dbio,
// dirtypage, jvmgc, dvfs) are its first entries. Every entry must keep
// passing `mscope scenario verify --all` — the catalogue IS the soak
// suite, and its length is the repo's fault-diversity metric.
var builtin = []Spec{
	{
		Name:        "dbio",
		Description: "Section V-A: a redo-log flush seizes the DB disk for ~350ms",
		Family:      "disk contention",
		Seed:        17, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "db-log-flush", At: dur(6 * time.Second), Duration: dur(350 * time.Millisecond)},
		},
		Expect: []Verdict{
			{Kind: "disk-io", Node: "mysql",
				From: dur(5 * time.Second), To: dur(8 * time.Second), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "dirtypage",
		Description: "Section V-B: dirty-page recycling saturates the Apache then Tomcat CPU",
		Family:      "cpu contention",
		Seed:        23, Users: stdUsers, Think: stdThink, Duration: stdDur,
		MemTuning: map[string]MemTuning{
			"apache": {HighWaterKB: 400 * 1024, LowWaterKB: 8 * 1024, DrainKBps: 400 * 1024,
				FlushSlice: dur(2 * time.Millisecond)},
			"tomcat": {HighWaterKB: 400 * 1024, LowWaterKB: 8 * 1024, DrainKBps: 400 * 1024,
				FlushSlice: dur(2 * time.Millisecond)},
		},
		Injectors: []InjectorSpec{
			{Kind: "dirty-page-surge", Node: "apache", At: dur(4 * time.Second), BurstKB: 300 * 1024},
			{Kind: "dirty-page-surge", Node: "tomcat", At: dur(6500 * time.Millisecond), BurstKB: 300 * 1024},
		},
		Expect: []Verdict{
			{Kind: "dirty-page-recycling", Node: "apache",
				From: dur(3500 * time.Millisecond), To: dur(6 * time.Second), Tol: dur(time.Second)},
			{Kind: "dirty-page-recycling", Node: "tomcat",
				From: dur(6 * time.Second), To: dur(8500 * time.Millisecond), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "jvmgc",
		Description: "stop-the-world JVM collection holds every Tomcat core for 300ms",
		Family:      "cpu contention",
		Seed:        29, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "jvm-gc", Node: "tomcat", At: dur(6 * time.Second), Pause: dur(300 * time.Millisecond)},
		},
		Expect: []Verdict{
			{Kind: "cpu-saturation", Node: "tomcat",
				From: dur(5 * time.Second), To: dur(8 * time.Second), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "dvfs",
		Description: "frequency scaling downclocks the MySQL CPU to 12% for 800ms",
		Family:      "cpu contention",
		Seed:        37, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "dvfs", Node: "mysql", At: dur(6 * time.Second),
				Duration: dur(800 * time.Millisecond), Speed: 0.12},
		},
		Expect: []Verdict{
			{Kind: "dvfs-downclocking", Node: "mysql",
				From: dur(5 * time.Second), To: dur(8 * time.Second), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "connpool",
		Description: "every Tomcat→C-JDBC connection leaks for 1.2s; workers block and the stall amplifies upstream",
		Family:      "software contention",
		Seed:        43, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "conn-pool-seize", Tier: "tomcat", At: dur(6 * time.Second),
				Duration: dur(1200 * time.Millisecond), Held: 120},
		},
		Expect: []Verdict{
			{Kind: "conn-pool-exhaustion", Node: "tomcat",
				From: dur(5500 * time.Millisecond), To: dur(8500 * time.Millisecond), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "lockconvoy",
		Description: "a hot row lock serializes DB queries for 400ms; queues balloon with every gauge flat",
		Family:      "software contention",
		Seed:        47, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "lock-convoy", At: dur(6 * time.Second),
				Duration: dur(400 * time.Millisecond), Hold: dur(10 * time.Millisecond)},
		},
		Expect: []Verdict{
			{Kind: "lock-convoy", Node: "mysql",
				From: dur(5500 * time.Millisecond), To: dur(9 * time.Second), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "stampede",
		Description: "mass buffer-pool expiry: for 800ms nearly every query misses and stampedes the DB disk with reads",
		Family:      "disk contention",
		Seed:        53, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Mix: "browse",
		Injectors: []InjectorSpec{
			{Kind: "cache-stampede", At: dur(6 * time.Second),
				Duration: dur(800 * time.Millisecond), MissProb: 0.95, ReadKB: 512},
		},
		Expect: []Verdict{
			{Kind: "cache-stampede", Node: "mysql",
				From: dur(5500 * time.Millisecond), To: dur(8500 * time.Millisecond), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "netjitter",
		Description: "the Tomcat↔C-JDBC link gains ~30ms of jitter for 1s; only the wire slows down",
		Family:      "network",
		Seed:        59, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "net-jitter", Src: "tomcat", Dst: "cjdbc", At: dur(6 * time.Second),
				Duration: dur(time.Second), Extra: dur(30 * time.Millisecond)},
		},
		Expect: []Verdict{
			{Kind: "net-jitter", Node: "cjdbc",
				From: dur(5500 * time.Millisecond), To: dur(8500 * time.Millisecond), Tol: dur(time.Second)},
		},
	},
	{
		Name:        "crashloop",
		Description: "C-JDBC crash-loops (two 700ms outages) and its event log never ships; diagnosis runs degraded",
		Family:      "crash / partial evidence",
		Seed:        61, Users: stdUsers, Think: stdThink, Duration: stdDur,
		Injectors: []InjectorSpec{
			{Kind: "crash-loop", Node: "cjdbc", At: dur(5500 * time.Millisecond),
				Outage: dur(700 * time.Millisecond), Period: dur(2 * time.Second), Count: 2},
		},
		DeleteTiers: []string{"cjdbc"},
		Expect: []Verdict{
			{Kind: "crash-loop", Node: "cjdbc",
				From: dur(5 * time.Second), To: dur(9500 * time.Millisecond), Tol: dur(time.Second),
				Degraded: true, Missing: []string{"cjdbc_event"}},
		},
	},
}

// Scenarios returns the registered catalogue in listing order.
func Scenarios() []Spec {
	out := make([]Spec, len(builtin))
	copy(out, builtin)
	return out
}

// ScenarioByName finds one catalogue entry.
func ScenarioByName(name string) (*Spec, bool) {
	for i := range builtin {
		if builtin[i].Name == name {
			s := builtin[i]
			return &s, true
		}
	}
	return nil, false
}

// ScenarioNames lists the catalogue's scenario names in order.
func ScenarioNames() []string {
	out := make([]string, len(builtin))
	for i := range builtin {
		out[i] = builtin[i].Name
	}
	return out
}

// catalogueTrial builds the named catalogue entry's experiment.
func catalogueTrial(name, logDir string) ExperimentConfig {
	s, ok := ScenarioByName(name)
	if !ok {
		panic(fmt.Sprintf("core: no catalogue entry %q", name))
	}
	cfg, err := s.Build(logDir)
	if err != nil {
		panic(err) // TestBuiltinSpecsValidate holds every entry valid
	}
	return cfg
}

// ScenarioDBIO reproduces Section V-A: at t=6s the database flushes its
// redo log, seizing the DB disk for ~350 ms. Figures 2, 4, 6 and 7 all
// derive from this trial.
func ScenarioDBIO(logDir string) ExperimentConfig { return catalogueTrial("dbio", logDir) }

// ScenarioDirtyPage reproduces Section V-B: dirty-page recycling saturates
// the Apache node's CPU at t=4s and the Tomcat node's at t=6.5s, producing
// the two look-alike response-time peaks of Figure 8.
func ScenarioDirtyPage(logDir string) ExperimentConfig { return catalogueTrial("dirtypage", logDir) }

// ScenarioJVMGC injects a stop-the-world garbage collection on the Tomcat
// node at t=6s — one of the related-work VSB causes (Java GC at the system
// software layer) the framework must also diagnose.
func ScenarioJVMGC(logDir string) ExperimentConfig { return catalogueTrial("jvmgc", logDir) }

// ScenarioDVFS injects a CPU downclock on the MySQL node between t=6s and
// t=6.8s — the architectural-layer VSB cause (frequency scaling) from the
// paper's related-work list. The frequency gauge in the collectl CSV lets
// the diagnosis distinguish it from organic CPU saturation.
func ScenarioDVFS(logDir string) ExperimentConfig { return catalogueTrial("dvfs", logDir) }
