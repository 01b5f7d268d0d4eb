package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
)

// runFidelitySession drains a complete static-file live session (Start
// then Stop reads every source to EOF) under the given fidelity options.
func runFidelitySession(t *testing.T, dir string, db *mscopedb.DB, opts FidelityOptions) *Pipeline {
	t.Helper()
	pipe, err := New(Config{LogDir: dir, DB: db, Fidelity: opts})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	return pipe
}

// retainedRows counts the warehouse rows a session actually kept: every
// dynamic table (full-fidelity and promoted rows) plus the rollup
// aggregates, excluding the static metadata tables.
func retainedRows(db *mscopedb.DB) int64 {
	var total int64
	for _, name := range db.TableNames() {
		switch name {
		case "mscope_experiments", "mscope_nodes",
			"mscope_monitors", "mscope_ingests":
			continue
		}
		if t, err := db.Table(name); err == nil {
			total += int64(t.Rows())
		}
	}
	return total
}

// verdicts flattens alerts to comparable kind@node strings, sorted.
func verdicts(alerts []Alert) []string {
	var out []string
	for _, a := range alerts {
		out = append(out, fmt.Sprintf("%s@%s", a.Diagnosis.Kind, a.Diagnosis.Node))
	}
	sort.Strings(out)
	return out
}

// TestFidelityDifferentialVerdicts is the correctness proof for degraded
// mode: on every Section V scenario — plus a clean (fault-free) trial and
// chaos-corrupted replays — a session pinned to AGGREGATE fidelity must
// reach exactly the verdicts a full-fidelity session reaches, window for
// window, while retaining an order of magnitude fewer rows on clean
// traffic.
func TestFidelityDifferentialVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fidelity suite replays five trials; skipped under -short")
	}
	shrink := func(mk func(string) core.ExperimentConfig) func(string) core.ExperimentConfig {
		return func(dir string) core.ExperimentConfig {
			cfg := mk(dir)
			cfg.Ntier.Users = 50
			return cfg
		}
	}
	clean := func(dir string) core.ExperimentConfig {
		cfg := core.ScenarioDBIO(dir)
		cfg.Ntier.Users = 50
		cfg.Injectors = nil
		cfg.Name = "clean"
		return cfg
	}
	scenarios := []struct {
		name  string
		mk    func(string) core.ExperimentConfig
		chaos int64 // corruption seed, 0 = pristine
	}{
		{name: "clean", mk: clean},
		{name: "dbio", mk: shrink(core.ScenarioDBIO)},
		{name: "dirtypage", mk: shrink(core.ScenarioDirtyPage)},
		{name: "jvmgc", mk: shrink(core.ScenarioJVMGC)},
		// DVFS stays at full scale: the 0.12x downclock needs the default
		// concurrency before the online detector sees a VLRT window at all.
		{name: "dvfs", mk: core.ScenarioDVFS},
		{name: "dbio-chaos-seed2", mk: shrink(core.ScenarioDBIO), chaos: 2},
		{name: "dbio-chaos-seed3", mk: shrink(core.ScenarioDBIO), chaos: 3},
	}

	// Staging dirs live in the PARENT test's TempDir: a subtest's TempDir is
	// removed when the subtest ends, and the chaos seeds replay dbio's logs.
	parent := t
	staged := map[string]string{} // experiment name → log dir, trials shared across chaos seeds
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			probe := sc.mk("")
			dir, ok := staged[probe.Name]
			if !ok {
				dir = parent.TempDir()
				if _, err := core.RunExperiment(sc.mk(dir)); err != nil {
					t.Fatalf("stage %s: %v", sc.name, err)
				}
				staged[probe.Name] = dir
			}
			if sc.chaos != 0 {
				corrupted := filepath.Join(parent.TempDir(), "chaos")
				if _, err := faults.Corrupt(dir, corrupted, faults.Config{
					Seed: sc.chaos, Rate: 0.01, Kinds: faults.LineKinds(),
				}); err != nil {
					t.Fatal(err)
				}
				dir = corrupted
			}

			full := runFidelitySession(t, dir, mscopedb.Open(), FidelityOptions{})
			agg := runFidelitySession(t, dir, mscopedb.Open(), FidelityOptions{Mode: FidelityAggregate})

			wantV, gotV := verdicts(full.Alerts()), verdicts(agg.Alerts())
			if len(wantV) != len(gotV) {
				t.Fatalf("full fidelity raised %v, aggregate raised %v", wantV, gotV)
			}
			for i := range wantV {
				if wantV[i] != gotV[i] {
					t.Errorf("verdict %d: full %q, aggregate %q", i, wantV[i], gotV[i])
				}
			}
			// Paired windows must overlap: same episode, not a coincidence.
			fa, ga := full.Alerts(), agg.Alerts()
			for _, a := range ga {
				overlapped := false
				for _, b := range fa {
					if a.Diagnosis.Window.StartMicros <= b.Diagnosis.Window.EndMicros &&
						b.Diagnosis.Window.StartMicros <= a.Diagnosis.Window.EndMicros {
						overlapped = true
					}
				}
				if !overlapped {
					t.Errorf("aggregate window [%d,%d] overlaps no full-fidelity window",
						a.Diagnosis.Window.StartMicros, a.Diagnosis.Window.EndMicros)
				}
			}

			fullRows, aggRows := retainedRows(full.DB()), retainedRows(agg.DB())
			if aggRows >= fullRows {
				t.Errorf("aggregate retained %d rows, full %d — no reduction", aggRows, fullRows)
			}
			t.Logf("%s: full=%d rows, aggregate=%d rows (%.1fx), verdicts=%v",
				sc.name, fullRows, aggRows, float64(fullRows)/float64(aggRows), gotV)
			if sc.name == "clean" {
				if len(wantV) != 0 {
					t.Errorf("clean trial raised alerts at full fidelity: %v", wantV)
				}
				if reduction := float64(fullRows) / float64(aggRows); reduction < 10 {
					t.Errorf("clean-traffic retention reduction %.1fx, want >= 10x", reduction)
				}
			} else if sc.chaos == 0 && len(wantV) == 0 {
				t.Errorf("fault scenario %s raised no alert at full fidelity", sc.name)
			}
		})
	}
}

// TestOverloadSoak drives the adaptive controller through a real overload:
// a 12x burst replay against a throttled consumer. The pipeline must stay
// inside its fixed memory bounds (bounded channel, bounded rings, rolled-up
// steady state), transition FULL→AGGREGATE and back without flapping, and
// still raise the disk-IO verdict from promoted evidence.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak replays a throttled trial; skipped under -short")
	}
	// A dedicated 50-user trial keeps the throttled replay test-suite
	// friendly; the burst factor, not the absolute rate, drives saturation.
	stage := t.TempDir()
	cfg := core.ScenarioDBIO(stage)
	cfg.Ntier.Users = 50
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	liveDir := filepath.Join(t.TempDir(), "live")
	overload := faults.Overload{BurstAt: 0.1, BurstUntil: 0.4, BurstFactor: 12,
		ConsumerDelay: 120 * time.Microsecond}
	prod, err := NewProducer(ProducerConfig{
		SrcDir:   stage,
		DstDir:   liveDir,
		Duration: 4 * time.Second,
		Overload: &overload,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ringCap = 16384
	pipe, err := New(Config{
		LogDir:        liveDir,
		ConsumerDelay: overload.ConsumerDelay,
		Fidelity:      FidelityOptions{Mode: FidelityAdaptive, ringCap: ringCap},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := prod.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}

	st := pipe.Status()
	if st.Fidelity == nil {
		t.Fatal("adaptive session reports no fidelity status")
	}
	f := st.Fidelity

	// Backpressure must have engaged: the burst outruns the throttled
	// loader, parsers catch the channel full, and nothing buffers beyond
	// the channel + rings.
	if st.Stalls == 0 {
		t.Error("no backpressure stalls under a 12x burst with a throttled consumer")
	}
	if f.RingRows > int64(len(st.Sources))*ringCap {
		t.Errorf("ring rows %d exceed the %d-source x %d bound", f.RingRows, len(st.Sources), ringCap)
	}
	var consumed int64
	for _, s := range pipe.snapshot() {
		consumed += s.consumed.Load()
	}
	// The fixed-memory property: everything retained OUTSIDE the promoted
	// anomaly neighbourhood must stay a small fraction of the traffic. The
	// promoted rows themselves are the product — the window ± pad ± grace
	// evidence deliberately pulled back at full fidelity.
	steady := (st.Rows - f.RowsPromoted) + f.RollupRows
	if steady >= consumed/4 {
		t.Errorf("retained %d of %d consumed rows outside the anomaly neighbourhood — degradation shed too little",
			steady, consumed)
	}
	if f.RowsRolledUp == 0 {
		t.Error("overload never rolled up a row; controller cannot have degraded")
	}

	// Hysteresis: the controller must have degraded and recovered, without
	// flapping. The transition log is one-step contiguous by construction;
	// here we assert the soak shape.
	trs := pipe.fid.ctrl.Transitions()
	if len(trs) < 2 {
		t.Fatalf("%d transitions, want at least FULL→AGGREGATE→FULL; log: %+v", len(trs), trs)
	}
	if len(trs) > 4 {
		t.Errorf("%d transitions — flapping; log: %+v", len(trs), trs)
	}
	degraded, recovered := false, false
	for _, tr := range trs {
		if tr.From.String() == "full" && tr.To.String() == "aggregate" {
			degraded = true
		}
		if tr.From.String() == "aggregate" && tr.To.String() == "full" {
			recovered = true
		}
	}
	if !degraded || !recovered {
		t.Errorf("transition log %+v lacks FULL→AGGREGATE (%v) or AGGREGATE→FULL (%v)",
			trs, degraded, recovered)
	}

	// The millibottleneck must still be caught — via promoted evidence if
	// the anomaly landed inside a degraded stretch.
	found := false
	for _, a := range pipe.Alerts() {
		if a.Diagnosis.Kind == core.CauseDiskIO && a.Diagnosis.Node == "mysql" {
			found = true
		}
	}
	if !found {
		t.Errorf("no disk-io@mysql verdict under overload; got %v", verdicts(pipe.Alerts()))
	}
	t.Logf("soak: consumed=%d steady=%d (rows=%d rollup=%d promoted=%d) stalls=%d transitions=%+v",
		consumed, steady, st.Rows, f.RollupRows, f.RowsPromoted, st.Stalls, trs)
}

// TestFidelityRestartResume kills an aggregate-fidelity session mid-trial
// and restarts it over the same warehouse. The consumed-count ledger must
// prevent the second session from re-processing rolled-up records: no
// duplicate promoted rows, no re-flushed rollup windows.
func TestFidelityRestartResume(t *testing.T) {
	stage := stagedDBIO(t)
	bdb, _ := batchBaseline(t)
	plan := transform.DefaultPlan()
	dir := t.TempDir()

	entries, err := os.ReadDir(stage)
	if err != nil {
		t.Fatal(err)
	}
	full := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || !Streamable(plan, e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(stage, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		full[e.Name()] = data
		b, _ := plan.Find(e.Name())
		cut := recordBoundary(b, data, 85*len(data)/100)
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db := mscopedb.Open()
	opts := FidelityOptions{Mode: FidelityAggregate}
	phase1 := runFidelitySession(t, dir, db, opts)
	if phase1.Status().Fidelity.RowsPromoted == 0 {
		t.Fatal("phase 1 promoted nothing; the cut must include the anomaly neighbourhood")
	}
	if len(phase1.Alerts()) == 0 {
		t.Fatal("phase 1 raised no alert")
	}

	for name, data := range full {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	phase2 := runFidelitySession(t, dir, db, opts)

	// No table may exceed its batch row count: a resume that re-consumed
	// rolled-up records would re-promote the anomaly neighbourhood and
	// overshoot.
	for _, name := range db.TableNames() {
		if name == "mscope_ingests" || name == tableRollup {
			continue
		}
		lt, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bdb.HasTable(name) {
			if lt.Rows() > 0 {
				t.Errorf("table %s has %d rows but no batch counterpart", name, lt.Rows())
			}
			continue
		}
		bt, _ := bdb.Table(name)
		if lt.Rows() > bt.Rows() {
			t.Errorf("table %s: %d rows after restart exceeds the batch %d — duplicated promotion",
				name, lt.Rows(), bt.Rows())
		}
	}

	// Rollup windows must not be re-flushed: at most one duplicate key per
	// (table, metric) — the single window each boundary can straddle.
	rt, err := db.Table(tableRollup)
	if err != nil {
		t.Fatal(err)
	}
	ti, mi, wi := rt.ColIndex("tbl"), rt.ColIndex("metric"), rt.ColIndex("win_us")
	seen := map[string]int{}
	dups := map[string]int{}
	for r := 0; r < rt.Rows(); r++ {
		key := fmt.Sprintf("%s|%s|%d", rt.Str(ti, r), rt.Str(mi, r), rt.Int(wi, r))
		seen[key]++
		if seen[key] > 1 {
			dups[rt.Str(ti, r)+"|"+rt.Str(mi, r)]++
		}
	}
	for series, n := range dups {
		if n > 1 {
			t.Errorf("rollup series %s re-flushed %d windows — phase 2 re-consumed phase 1's records",
				series, n)
		}
	}

	// A third run over unchanged files must consume nothing new.
	phase3 := runFidelitySession(t, dir, db, opts)
	var extra int64
	for _, s := range phase3.snapshot() {
		extra += s.processed.Load()
	}
	if extra != 0 {
		t.Errorf("restart over unchanged files processed %d records; ledger resume must be idempotent", extra)
	}
	_ = phase2
}

// TestFidelityRingEviction pins the degraded pipeline against a ring far
// too small for the trial: eviction must stay an accounting matter — the
// session completes, bounds hold, and promotion never errors or
// duplicates. (Whether the alert survives depends on how much
// neighbourhood the tiny ring kept; that is the documented trade.)
func TestFidelityRingEviction(t *testing.T) {
	stage := stagedDBIO(t)
	pipe, err := New(Config{LogDir: stage, Fidelity: FidelityOptions{Mode: FidelityAggregate, ringCap: 64}})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatalf("tiny-ring session failed: %v", err)
	}
	f := pipe.Status().Fidelity
	if f.RingEvicted == 0 {
		t.Error("a 64-slot ring over the full trial evicted nothing")
	}
	if f.RingRows > int64(len(pipe.Status().Sources))*64 {
		t.Errorf("ring rows %d exceed capacity bound", f.RingRows)
	}
	bdb, _ := batchBaseline(t)
	for _, name := range pipe.DB().TableNames() {
		if name == "mscope_ingests" || name == tableRollup || !bdb.HasTable(name) {
			continue
		}
		lt, _ := pipe.DB().Table(name)
		bt, _ := bdb.Table(name)
		if lt.Rows() > bt.Rows() {
			t.Errorf("table %s: %d promoted rows exceed the batch %d — duplicate promotion under eviction",
				name, lt.Rows(), bt.Rows())
		}
	}
}

// TestAdaptiveMemCountsResidentRows: the memory signal counts the rows the
// warehouse holds in memory, not every row a session appended, so a
// store-backed adaptive session whose table seals as it grows stays FULL
// through twice its row budget when nothing else presses on it. One source
// fed a batch at a time keeps the watermark lag and the queue at rest.
func TestAdaptiveMemCountsResidentRows(t *testing.T) {
	const budget = 1000
	stage := stagedDBIO(t)
	plan := transform.DefaultPlan()
	var name string
	var bind transform.Binding
	entries, err := os.ReadDir(stage)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if b, ok := plan.Find(e.Name()); ok && Streamable(plan, e.Name()) &&
			b.TableSuffix == "event" && strings.HasPrefix(e.Name(), core.Tiers[0]) {
			name, bind = e.Name(), b
			break
		}
	}
	if name == "" {
		t.Fatalf("no front-tier event log in %s", stage)
	}
	data, err := os.ReadFile(filepath.Join(stage, name))
	if err != nil {
		t.Fatal(err)
	}
	parser, err := parsers.Get(bind.Parser)
	if err != nil {
		t.Fatal(err)
	}

	db, err := mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewRemote(Config{DB: db, Fidelity: FidelityOptions{Mode: FidelityAdaptive, MaxRetainedRows: budget}})
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := pipe.OpenRemote(filepath.Join(stage, name), name)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	var b wire.Batch
	sent := 0
	flush := func() {
		done := make(chan struct{})
		src.AppendBatch(&b, func() { close(done) })
		<-done
		b.Reset()
	}
	err = parser.ParseRecords(bytes.NewReader(data), bind.Instructions, func(r *parsers.Record) error {
		if sent >= 2*budget {
			return nil
		}
		if err := b.AppendRecord(r); err != nil {
			return err
		}
		if sent++; sent%32 == 0 {
			flush()
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flush()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	if sent < 2*budget {
		t.Fatalf("%s holds %d records, want %d", name, sent, 2*budget)
	}
	if f := pipe.Status().Fidelity; f.State != fidelity.Full || f.Transitions != 0 {
		t.Errorf("after %d rows under a %d-row budget: state %v with %d transitions, want full with none",
			sent, budget, f.State, f.Transitions)
	}
	tbl, err := db.Table(src.Table())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != sent || tbl.SealedRows() == 0 {
		t.Errorf("%s: %d rows (%d sealed), want %d appended and some sealed", tbl.Name(), tbl.Rows(), tbl.SealedRows(), sent)
	}
}
