# milliScope reproduction — common targets.

GO ?= go

.PHONY: all fast full examples size fmt build vet selfobs-lint test test-short race race-short bench bench-smoke overhead-check fidelity-check overload-soak dist-soak scenario-soak db-soak serve-smoke profile-ingest cover fuzz fuzz-smoke chaos live-smoke experiment clean

all: full

# What CI runs on every push before the smokes and soaks: everything
# compiles and vets, the hot paths keep their telemetry discipline, the
# quick suite is race-clean, and the pipeline benchmark still builds and
# passes its oracle checks. Under 90 s on two cores.
fast: fmt build vet selfobs-lint race-short bench-smoke

# fast, then the full suite, every example, the smokes and soaks, and the
# two absolute budgets bench/ does not measure.
full: fast test examples live-smoke serve-smoke overload-soak dist-soak scenario-soak db-soak overhead-check fidelity-check

# Every program under examples/ runs to the end (about 7 s on 2 vCPUs): the
# build proves they compile, this that the API still does what they say.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# The size numbers ROADMAP tracks per PR, each taken the one canonical way
# (hand counts have disagreed): lines of non-test Go outside bench/; flag
# definition sites in cmd/ (a flag registered once for several commands
# counts once); exported identifiers, as top-level exported funcs, methods,
# types, vars and consts (grouped ones when they carry a value) in the same
# files; how many of those files import encoding/gob; the lines of Go
# under bench/, tests included; the lines of DESIGN.md; and the entries
# of surface_test.go's allowlist of exported internal names that no other
# package's production code uses. CI prints it after `make fast`.
SIZE_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'
size:
	@printf 'non-test Go outside bench/:  %s lines\n' "$$($(SIZE_FILES) | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'internal/agentd/agentd.go:   %s lines\n' "$$(wc -l < internal/agentd/agentd.go)"
	@printf 'flag definitions:            %s\n' "$$(grep -rhoE 'fs\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)(Var)?\(' --include='*.go' cmd | wc -l)"
	@printf 'exported identifiers:        %s\n' "$$($(SIZE_FILES) | xargs grep -hE '^(func (\([^)]+\) )?[A-Z]|type [A-Z]|(var|const) [A-Z]|	[A-Z][A-Za-z0-9]* += )' | wc -l)"
	@printf 'files importing encoding/gob: %s\n' "$$($(SIZE_FILES) | xargs grep -l '"encoding/gob"' | wc -l)"
	@printf 'Go under bench/:             %s lines\n' "$$(cat bench/*.go | wc -l)"
	@printf 'DESIGN.md:                   %s lines\n' "$$(wc -l < DESIGN.md)"
	@printf 'internal exports allowlisted: %s\n' "$$(grep -cE '^[[:space:]]+\{"[a-z]+\.[A-Z][A-Za-z0-9]*", ' surface_test.go)"

# gofmt reports nothing: every Go file is formatted.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full suite, including the 45s soak trial and saturation sweep.
test:
	$(GO) test ./...

# Skips the soak and saturation tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Race detector over the quick suite; part of `fast`.
race-short:
	$(GO) test -race -short ./...

# Every Go benchmark (the pipeline, fidelity and self-observability ones);
# writes bench_output.txt. The paper's figures are `make experiment`.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Smoke run of the pipeline benchmark (BENCHMARK.json, bench/README.md):
# tiny corpora, all four workloads. The numbers mean nothing; the point is
# that the harness compiles against the tree and every oracle check passes
# (exit 1 on any ops_failed). Performance claims and regressions are judged
# by `bash bench/run.sh` and `bash bench/run.sh compare`, metric by metric.
bench-smoke:
	bash bench/run.sh --quick

# Self-observability budget gate: paired instrumented-vs-disabled ingests
# of the same corpus; fails if the median overhead exceeds the absolute
# 3% ceiling in BENCH_selfobs.json. Forty-five pairs: one ingest is ~80 ms,
# and on two cores the median of three pairs swung from -6% to +30% between
# runs, of fifteen from -5% to +3.4%, of forty-five from -1.7% to +1.8%.
overhead-check:
	$(GO) test -run xxx -bench BenchmarkSelfObsOverhead -benchtime 45x . 2>&1 | tee selfobs_bench_output.txt
	$(GO) run ./cmd/benchcheck --input selfobs_bench_output.txt BENCH_selfobs.json

# Degradation contract gate: aggregate fidelity must retain >= 10x fewer
# rows on clean traffic and the adaptive controller may cost an idle
# pipeline at most 10% (absolute bounds in BENCH_fidelity.json).
fidelity-check:
	$(GO) test -run xxx -bench BenchmarkFidelity -benchtime 3x . 2>&1 | tee fidelity_bench_output.txt
	$(GO) run ./cmd/benchcheck --input fidelity_bench_output.txt BENCH_fidelity.json

# Overload chaos drill under the race detector: a 12x burst replay against
# a throttled consumer must stay in bounded memory, degrade and recover
# with hysteresis, and still raise the disk-IO verdict.
overload-soak:
	$(GO) test -race -run TestOverloadSoak -v ./internal/stream/

# Observability-service smoke under the race detector: every `mscope
# serve` endpoint — tables, MQL query, zone-map-pruned window aggregation,
# waterfall, flamegraph SVG, diagnosis timeline, healthz, metrics — is
# driven against a real scenario warehouse, plus the live-attachment path
# with concurrent queries during load, a segment damaged under warm
# per-file caches still answering 500 until it is repaired, and a warm
# trace between window queries reading into kept buffers, and a window
# body whose allocations do not grow with its windows.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServeLivePipeline|TestSnapshotMemoSingleFlight|TestVerificationSurvivesWarmCaches|TestWarmTraceReusesReadBuffers|TestWindowBodyAllocsPerWindow' -v ./internal/serve/

# Distributed kill/restart soak under the race detector: four agents ship
# the disk-IO trial to a throttled collector, one is crashed mid-stream
# (no drain) and replaced; the replacement must resume from the
# collector-acked offsets with zero duplicate rows — the warehouse stays
# byte-identical to single-process ingest — and the disk-IO verdict must
# still fire from the distributed evidence.
dist-soak:
	$(GO) test -race -run TestDistSoak -v ./internal/collector/

# Fault-catalogue soak under the race detector: every registered scenario
# runs end to end (generate → ingest → diagnose, then a live replay
# through the streaming pipeline) and must reach exactly its declared
# verdict both offline and online. Per-scenario timing is printed.
scenario-soak:
	$(GO) run -race ./cmd/mscope scenario verify --all --live

# Durable-warehouse soak under the race detector: a 15s trial ingested
# into a warehouse directory sized so every event table holds >= 10x
# its RAM budget on disk, killed mid-ingest and mid-compaction, reopened,
# resumed, compacted — and the result must stay cell-identical (and
# diagnose-identical) to a pure in-memory ingest of the same logs. Then
# fifty race-detector runs of readers, a widening writer and a free-running
# compactor on one spilled table: the compactor once read a segment under
# a schema a concurrent Widen had just changed, a failure seen only in
# loaded full-suite runs; TestCompactionRacingWiden pins the fix.
db-soak:
	MSCOPE_DB_SOAK=1 $(GO) test -race -run TestDBSoak -v -timeout 15m ./internal/scenario/
	$(GO) test -race -count=50 -run TestReadersUnderSpillCompactWiden ./internal/mscopedb/

# Profile the batch ingest as bench/'s batch-ingest workload runs it — a
# fresh warehouse directory, default options, the closing checkpoint: writes
# CPU and allocation profiles of BenchmarkIngestBatch for `go tool pprof`.
# Start here before touching the ingest hot path.
profile-ingest:
	$(GO) test -run xxx -bench BenchmarkIngestBatch -benchtime 5x \
		-cpuprofile ingest_cpu.pprof -memprofile ingest_mem.pprof .
	@echo "profiles written; inspect with:"
	@echo "  $(GO) tool pprof -top ingest_cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_objects ingest_mem.pprof"

# Hot-path telemetry lint: files on the per-record ingest/stream paths may
# only touch internal/selfobs through its no-op-able API (NewBuf / Begin /
# counters), never through formatting helpers that would allocate when
# telemetry is disabled.
selfobs-lint:
	$(GO) run ./cmd/selfobslint ./internal/parsers ./internal/transform ./internal/stream ./internal/wire ./internal/mscopedb

cover:
	$(GO) test -short -cover ./...

# Short fuzz pass over the apache parser (native go fuzzing), plus the
# cell typer, over strings and over bytes, against the strconv/time
# cascade it replaced; then fuzz-smoke's targets, for longer.
fuzz:
	$(GO) test -fuzz FuzzApacheAccessLog -fuzztime 30s ./internal/parsers/
	$(GO) test -fuzz FuzzCellTyperEquivalence -fuzztime 30s ./internal/xmlcsv/
	$(MAKE) fuzz-smoke FUZZTIME=30s

# Ten seconds each, a CI step, on the read path's untrusted inputs: segment
# files (full, projected and restart-point decodes agree or both fail, never
# a panic or an allocation sized by an unchecked field), MQL text (parses or errors;
# what parses executes or errors), and /api/window's parameters (200, 400
# or 404, never a 5xx) and the /api/query and /api/window body writer
# (the bytes encoding/json writes for the same rows, whatever the cells);
# on filtered, ordered, limited queries over tiny
# spilled segments (the rows of the in-memory table and of a naive
# filter-sort-truncate oracle); on the wire frames a collector reads off the
# network (never a panic; a batch that decodes, whose cells are spans of
# the frame, re-encodes to the same content and bytes); on the batch
# ingest's table builder against the two-pass construction it replaced (arbitrary records, same table or same
# error), and the same records merged into one table in blocks as the live
# loader merges them (no panic; a column no block widens holds the same
# cells); on the sar-xml byte scanner against the encoding/xml walk it
# replaced (the same records, or an error); on the compiled tokenizer
# against regexp (the same match and groups), the mysql-slow parser (no
# panic; degraded agrees with a clean strict parse) and its fixed-layout
# "# Time:" decoder against time.Parse (the same instant, or it declines);
# and on the --spec JSON `mscope
# scenario run|verify` decodes (an error, never a panic; what decodes
# re-encodes and decodes again). -run '^$$' skips the unit tests the plain
# -fuzz form would rerun first; a short minimize budget keeps the time
# fuzzing.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/mscopedb/
	$(GO) test -run '^$$' -fuzz FuzzQueryOrderLimit -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/mscopedb/
	$(GO) test -run '^$$' -fuzz FuzzMQLParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/mql/
	$(GO) test -run '^$$' -fuzz FuzzServeWindowParams -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzQueryBodyMatchesEncodingJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzTableBuilderEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/transform/
	$(GO) test -run '^$$' -fuzz FuzzLiveMergeMatchesBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/transform/
	$(GO) test -run '^$$' -fuzz FuzzSarXMLMatchesEncodingXML -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/parsers/
	$(GO) test -run '^$$' -fuzz FuzzTokenizerEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/parsers/
	$(GO) test -run '^$$' -fuzz FuzzMySQLSlowLog -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/parsers/
	$(GO) test -run '^$$' -fuzz FuzzMySQLTimeMatchesTimeParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/parsers/
	$(GO) test -run '^$$' -fuzz FuzzScenarioConfigDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/scenario/

# End-to-end chaos drill: run a trial, corrupt its logs deterministically,
# ingest the damage under the quarantine policy, and diagnose anyway.
chaos:
	rm -rf /tmp/mscope-chaos
	$(GO) run ./cmd/mscope run --scenario dbio --out /tmp/mscope-chaos/logs
	$(GO) run ./cmd/mscope chaos --logs /tmp/mscope-chaos/logs --out /tmp/mscope-chaos/corrupted --seed 1 --rate 0.01
	$(GO) run ./cmd/mscope ingest --logs /tmp/mscope-chaos/corrupted --work /tmp/mscope-chaos/work \
		--db /tmp/mscope-chaos/wh --mode quarantine --budget 0.25
	$(GO) run ./cmd/mscope diagnose --db /tmp/mscope-chaos/wh

# Live-monitoring smoke: replay the disk-IO trial through `mscope live`
# under the race detector; --expect-alert fails the run unless the online
# detector raised at least one millibottleneck alert and shut down cleanly,
# and unless the first alert fired sooner after its window than its slice
# plus the whole 2 s grace ceiling (plus its hold, when a later episode
# started inside its slice): the wait must follow the ~320 ms residence
# of the flush (about 1.0 s in all: 0.32 s slice + 0.64 s grace), not the
# 1 s pad + the 2 s constant (3.1 s).
live-smoke:
	rm -rf /tmp/mscope-live-smoke
	$(GO) run -race ./cmd/mscope live --scenario dbio --out /tmp/mscope-live-smoke \
		--speed 8 --expect-alert

# One-command reproduction of the whole evaluation: every figure as ASCII,
# then the claims table (EXPERIMENTS.md); fails if a claim misses its bound.
experiment:
	$(GO) run ./cmd/mscope experiment --out /tmp/mscope-exp

clean:
	rm -rf /tmp/mscope-exp /tmp/mscope-chaos
