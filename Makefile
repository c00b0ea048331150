# Build, vet and test targets for the NADINO simulator.

GO ?= go

.PHONY: build test vet fmt race check bench bench-gate bench-pair bench-res bench-e2e bench-e2e-gate bench-e2e-pair suite ci trace telemetry fuzz fuzz-smoke cover profile svc-smoke parity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the full suite under the race detector. The simulation engine is
# single-threaded by design, but the tracer, the parallel experiment runner,
# the telemetry registry (atomic counters scraped concurrently —
# TestConcurrentScrapeWhileUpdate hammers it), and the nadino-svc
# pacer/HTTP plane ride on real goroutines — this target proves the
# handoffs are clean. It includes TestParallelDeterminism,
# which runs every experiment sequentially and sharded across all cores and
# asserts byte-identical tables. (The experiments package needs more than
# the default 10m under -race.)
race:
	$(GO) test -race -timeout 30m ./...

# check is the full pre-commit gate.
check: vet race

# bench runs the simulator-core microbenchmarks (event scheduling, cancel,
# same-instant Immediate, the near path under 100k far timers, the waits —
# FCFS and PS Run, Signal and Queue Notify; events/sec and allocs/op)
# plus the cluster-scale sweep
# (BenchmarkScaleSweep: 100k-1M concurrent clients per point, wall-clock
# ns/op and events/sec) and archives everything as BENCH_sim.json for
# cross-commit comparison. The human-readable output goes to stderr. The
# microbenchmarks and the scale sweep run in five rounds over the whole
# set, with the host-speed reference (cmd/benchjson's BenchmarkHostSpeed,
# a fixed standard-library workload) timed before each package and after
# the last round; benchjson rescales each result's ns/op by the reference
# readings around it and archives its median over the rounds with the
# minimum and maximum beside it, and the median of each custom metric
# (the sweep's events/sec, as measured). Rounds, not back-to-back repeats
# (-count): the host's speed drifts in phases of seconds to minutes, and a
# benchmark's consecutive repeats fall in one phase. Each scale point runs
# once per round (-benchtime 1x): its simulation is deterministic for the
# fixed seed, so only its virtual-time columns are exact, and its wall
# clock is one reading per round. BenchmarkEndToEndEcho runs after the
# last reference reading and is archived as measured.
bench:
	( ref() { $(GO) test -run '^$$' -bench 'BenchmarkHostSpeed$$' -benchtime 300ms ./cmd/benchjson/ ; } ; \
	  for round in 1 2 3 4 5; do \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkProcessorRun$$|BenchmarkSignalNotify$$|BenchmarkQueueNotify$$|BenchmarkPSRun$$' -benchmem ./internal/sim/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkQPPostSend$$|BenchmarkCQPollInto$$' -benchmem ./internal/rdma/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkDNEIngest$$' -benchmem ./internal/dne/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkMempoolCachedGetPut$$' -benchmem ./internal/mempool/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkGatewayForward$$|BenchmarkChainCrossNode$$' -benchmem ./internal/gateway/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkFlightRecord$$' -benchmem ./internal/flightrec/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkCloneFanout$$' -benchmem ./internal/speculate/ ; \
	  ref ; $(GO) test -run '^$$' -bench 'BenchmarkScaleSweep' -benchtime 1x -timeout 30m ./internal/experiments/ ; \
	  done ; ref ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEndToEndEcho$$' -benchmem -benchtime 5x . ) | $(GO) run ./cmd/benchjson > BENCH_sim.json

# GATED is the gated microbenchmark set, shared by bench-gate and
# bench-pair, as one package=regexp entry per package: the event-core
# schedule hot path and its schedule-then-cancel cycle, same-instant
# Immediate, the near path under 100k far timers and the waits (FCFS and PS
# Run, Signal and Queue Notify; pinned at 0 allocs/op), plus the data-plane
# fast path (QP send, CQ ring drain, the DNE loop's ingest with 16 ports
# attached, cached mempool Get/Put), the gateway
# forwarding path and the flight-recorder record path (pinned at 0
# allocs/op). GATED_ROUND runs the set once from the current directory,
# timing the host-speed reference (HOST_REF, always from the working tree)
# before each package. All three are override, so a command-line setting
# cannot change the gated set.
override GATED := \
	'./internal/sim/=BenchmarkEngineSchedule$$|BenchmarkEngineScheduleCancel$$|BenchmarkEngineImmediate$$|BenchmarkEngineFarTimers$$|BenchmarkProcessorRun$$|BenchmarkSignalNotify$$|BenchmarkQueueNotify$$|BenchmarkPSRun$$' \
	'./internal/rdma/=BenchmarkQPPostSend$$|BenchmarkCQPollInto$$' \
	'./internal/dne/=BenchmarkDNEIngest$$' \
	'./internal/mempool/=BenchmarkMempoolCachedGetPut$$' \
	'./internal/gateway/=BenchmarkGatewayForward$$|BenchmarkChainCrossNode$$' \
	'./internal/flightrec/=BenchmarkFlightRecord$$' \
	'./internal/speculate/=BenchmarkCloneFanout$$'
override HOST_REF = (cd $(CURDIR) && $(GO) test -run '^$$' -bench 'BenchmarkHostSpeed$$' -benchtime 300ms ./cmd/benchjson/)
override GATED_ROUND = for g in $(GATED); do $(HOST_REF) ; $(GO) test -run '^$$' -bench "$${g\#*=}" -benchmem "$${g%%=*}" ; done

# bench-gate re-runs the gated set in five rounds with the host-speed
# reference around each package, as `bench` does, and fails if any one's
# rescaled median regressed more than 25% in ns/op against the archived
# median, or any run allocates more per op than archived, in
# BENCH_sim.json.
bench-gate:
	( for round in 1 2 3 4 5; do $(GATED_ROUND) ; done ; $(HOST_REF) ) | $(GO) run ./cmd/benchjson -gate BENCH_sim.json

# bench-pair is the paired gate: it exports BASE with git archive into a
# temporary directory, as parity does, and runs the gated set from BASE and
# from the working tree in five rounds, alternating which side goes first,
# with the host-speed reference timed before each package and after each
# side's round. It folds the BASE side with benchjson and gates the working
# tree against it with benchjson -gate (the 25% ns/op bound, no allocs/op
# growth), so host drift between an archive and a fresh run cannot trip or
# mask it. The temporary directory is always removed.
#   make bench-pair BASE=<commit>
bench-pair:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" && git archive $(BASE) | tar -x -C "$$tmp/src" || exit 1; \
	for round in 1 2 3 4 5; do \
		order="base work"; [ $$((round % 2)) = 0 ] && order="work base"; \
		for side in $$order; do \
			dir="$$tmp/src"; [ $$side = work ] && dir="$(CURDIR)"; \
			(cd "$$dir" && $(GATED_ROUND) ; $(HOST_REF)) >> "$$tmp/$$side.out"; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson < "$$tmp/base.out" > "$$tmp/base.json" && \
	$(GO) run ./cmd/benchjson -gate "$$tmp/base.json" < "$$tmp/work.out"

# bench-e2e runs the repository benchmark (bench/, declared by
# BENCHMARK.json) three times per workload at seed 1 with a 1 s budget —
# each run does its minimum of 9 replicas, so the modeled metrics are exact
# for the seed — in three rounds over the four workloads, and archives one
# result per workload as BENCH_e2e.json: the modeled metrics, which must
# agree across the three runs, and the median of each host metric.
E2E_WORKLOADS := boutique-closed ingress-echo fabric-mt scale-open
E2E_RUN = out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for round in 1 2 3; do for w in $(E2E_WORKLOADS); do \
		python3 bench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 >> "$$out" || exit 1; \
	done; done
bench-e2e:
	@$(E2E_RUN); $(GO) run ./cmd/benchjson -e2e < "$$out" > BENCH_e2e.json

# bench-e2e-gate re-runs those four workloads three times each and fails
# if any modeled metric (vrps, vlat_mean_us, vlat_p999_us, dp_cores)
# differs between the runs or from BENCH_e2e.json, if any request fails,
# or if the median of any host metric (wall_ns_per_req, setup_s,
# allocs_per_req, live_heap_mb) is worse than archived by more than its
# bound in BENCHMARK.json. A change that means to move a modeled metric
# re-archives with `make bench-e2e` and says why.
bench-e2e-gate:
	@$(E2E_RUN); $(GO) run ./cmd/benchjson -e2e -gate BENCH_e2e.json < "$$out"

# bench-e2e-pair measures an end-to-end claim against BASE: it exports BASE
# with git archive, as parity does, and runs ten alternating pairs of
# `python3 bench/run.py --workload $(WORKLOAD) --seed <s> --seconds 20
# --trace 0` at seeds 1001-1010, from BASE and from the working tree, BASE
# first in odd-seeded pairs and the working tree first in even ones.
# benchjson -pair prints every end-to-end metric of each pair, then per
# metric each side's median and quartiles and how many pairs the working
# tree won, and fails if a modeled metric disagreed on any pair or a run
# failed requests. Run it on a quiet machine. The temporary directory is
# always removed.
#   make bench-e2e-pair BASE=<commit> WORKLOAD=<name>
bench-e2e-pair:
	@[ -n "$(WORKLOAD)" ] || { echo "bench-e2e-pair: set WORKLOAD=<name>"; exit 1; }; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" && git archive $(BASE) | tar -x -C "$$tmp/src" || exit 1; \
	for seed in $$(seq 1001 1010); do \
		order="base work"; [ $$((seed % 2)) = 0 ] && order="work base"; \
		for side in $$order; do \
			dir="$$tmp/src"; [ $$side = work ] && dir="$(CURDIR)"; \
			echo "== pair $$seed $$side" | tee -a "$$tmp/pairs.out"; \
			(cd "$$dir" && python3 bench/run.py --workload $(WORKLOAD) --seed $$seed --seconds 20 --trace 0) >> "$$tmp/pairs.out" || exit 1; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson -pair < "$$tmp/pairs.out"

# profile captures pprof CPU and heap profiles of a representative slice of
# the suite (fig15 exercises the full DNE data path at quick fidelity).
# Override PROFILE_RUN to profile a different experiment set.
PROFILE_RUN ?= fig15
profile:
	$(GO) run ./cmd/nadino-bench -quick -run $(PROFILE_RUN) -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "inspect with: $(GO) tool pprof cpu.prof   (or mem.prof)"

# bench-res archives the resilience headline numbers (recovery ratio, worst
# recovery time, DWRR vs FCFS retention) plus the gateway-fabric headlines
# (placement RPS/latency, failover transit and drops) as BENCH_res.json,
# with the telemetry summary gauges of a scraped res-* run embedded
# alongside. Each iteration is a full quick-mode experiment and
# deterministic for the fixed seed, so -benchtime 1x is exact.
bench-res: telemetry
	$(GO) test -run '^$$' -bench 'BenchmarkRes|BenchmarkFabric' -benchtime 1x ./internal/experiments/ | $(GO) run ./cmd/benchjson -telemetry telemetry/summary.json > BENCH_res.json

# suite regenerates every paper artifact at quick fidelity, sharded across
# all cores (output is bitwise-identical to -parallel 1).
suite:
	$(GO) run ./cmd/nadino-bench -quick -parallel 0

# ci is the one-command gate: gofmt, build, vet, race-test the whole module
# with -short (skips the ~15-min whole-suite parallel-determinism sweep; the
# res-* determinism fence still runs — the full-suite `race` target stays
# the deep pre-commit gate), run the bench/ module's correctness fence (a
# separate module, so the root `go test ./...` never reaches it), enforce
# per-package coverage floors, regenerate
# everything — paper artifacts, ablations and the chaos res-* suite — at
# quick fidelity across all cores, then smoke-check the telemetry export
# pipeline and the simulation fuzzer, and finally gate the event-core hot
# paths and the repository benchmark's end-to-end numbers against their
# archives.
ci: fmt
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -short -timeout 20m ./...
	cd bench && $(GO) test ./...
	$(MAKE) cover
	$(GO) run ./cmd/nadino-bench -quick -parallel 0 -run everything
	$(MAKE) telemetry
	$(MAKE) fuzz-smoke
	$(MAKE) svc-smoke
	$(MAKE) bench-gate
	$(MAKE) bench-e2e-gate

# svc-smoke is the live-daemon end-to-end check: boot nadino-svc on an
# ephemeral port with the built-in template config, poll /readyz, scrape
# /metrics (content type + core families), hot-install a chaos schedule via
# the management API, pull a flight dump, verify traffic flowed, and shut
# down cleanly. Exit status is the verdict.
svc-smoke:
	$(GO) run ./cmd/nadino-svc -smoke

# Coverage floors for the correctness-critical packages: the simulation
# engine, the ownership-checked mempool, the RDMA transport, the DNE and
# its descriptor channels (ipc, dpu), the gateway fabric, speculation,
# ingress and the cluster core, the observability pipeline (telemetry,
# trace, flight recorder, nadino-svc), the fault injector (chaos), and the
# simulation fuzzer itself.
COVER_FLOOR := 70
COVER_PKGS  := ./internal/sim/ ./internal/mempool/ ./internal/rdma/ ./internal/dne/ \
	./internal/gateway/ ./internal/speculate/ ./internal/ingress/ ./internal/core/ \
	./internal/telemetry/ ./internal/trace/ ./internal/flightrec/ ./internal/svc/ \
	./internal/simtest/ ./internal/ipc/ ./internal/dpu/ ./internal/chaos/

# cover runs the floor packages with -cover and fails if any falls below
# $(COVER_FLOOR)% statement coverage.
cover:
	@$(GO) test -short -count=1 -cover $(COVER_PKGS) | tee cover.out
	@awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = substr($$(i+1), 1, length($$(i+1))-1); \
			if (pct + 0 < floor) { printf "cover: %s at %s%% is below the %d%% floor\n", $$2, pct, floor; bad = 1 } \
		} \
		END { exit bad }' cover.out
	@rm -f cover.out
	@echo "cover: all floor packages >= $(COVER_FLOOR)%"

# fuzz-smoke is the CI slice of the simulation fuzzer: 50 generated
# scenarios (random topology, tenants, workloads and chaos schedules) run
# under the full invariant registry, sharded across all cores. The grep
# fails the target on any invariant violation; failing seeds are printed
# with standalone repro commands.
fuzz-smoke:
	$(GO) run ./cmd/nadino-bench -run fuzz -quick -parallel 0 -fuzz-seeds 50 | tee fuzz-smoke.out
	@grep -q 'verdict: CLEAN' fuzz-smoke.out
	@rm -f fuzz-smoke.out

# fuzz is the deep sweep: 500 scenarios at full fidelity. Reproduce any
# failing seed with `go run ./cmd/nadino-bench -run fuzz -seed <s> -fuzz-seeds 1`
# (byte-identical output), or demo the pipeline end-to-end with
# `-fuzz-defect leak-buffer`, which plants a buffer leak in the harness and
# shows it caught and shrunk to a minimal counterexample.
fuzz:
	$(GO) run ./cmd/nadino-bench -run fuzz -parallel 0 -fuzz-seeds 500 | tee fuzz.out
	@grep -q 'verdict: CLEAN' fuzz.out
	@rm -f fuzz.out

# parity is the check behind "byte-identical" claims. It exports BASE
# (default HEAD) into a temporary directory with git archive, builds
# nadino-bench, nadino-sim, nadino-boutique and the examples from that tree
# and from the working tree, and runs both builds on: the quick suite, the
# 50-seed fuzz smoke, the microbenchmark rigs (echo, Comch, primitive,
# tenancy, ablation and res-* experiments) at full fidelity, fig06 and
# fabric-shard traced (stdout and the Chrome trace file), the res-*
# experiments with telemetry on (stdout and every exported file) and
# clone-chaos with telemetry on (stdout and the Prometheus and CSV
# exports), nadino-sim on configs/boutique.json in each load mode (closed
# loop, -open-clients, -trace-rps, -trace-file), nadino-boutique and the
# five examples. Both builds read the working tree's config and trace
# file; the traced and telemetry runs write into their tree's output
# directory under the same relative names. clone-chaos exports the
# process's wall-clock uptime (process.uptime_seconds{clock=wall}), so its
# JSON and HTML exports, which embed that series, are not kept, and lines
# of that series are dropped. It compares the two trees' file lists, drops
# the "[... completed in ...]" timing lines, prints the first difference
# and fails on any. The temporary directory is always removed.
#   make parity BASE=<commit>
BASE ?= HEAD
PARITY_EXAMPLES := quickstart boutique multitenant ingress crosstenant
parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" && git archive $(BASE) | tar -x -C "$$tmp/src" || exit 1; \
	for tree in base work; do \
		dir="$$tmp/src"; [ $$tree = work ] && dir="$(CURDIR)"; \
		bin="$$tmp/bin-$$tree"; out="$$tmp/$$tree"; mkdir -p "$$bin" "$$out"; \
		(cd "$$dir" && $(GO) build -o "$$bin/" ./cmd/nadino-bench ./cmd/nadino-sim ./cmd/nadino-boutique ./examples/...) || exit 1; \
		sim="$$bin/nadino-sim -config $(CURDIR)/configs/boutique.json"; \
		"$$bin/nadino-bench" -quick -parallel 0 -run everything > "$$out/suite" && \
		"$$bin/nadino-bench" -run fuzz -quick -parallel 0 -fuzz-seeds 50 > "$$out/fuzz" && \
		"$$bin/nadino-bench" -parallel 0 -run fig06,fig09,fig11,fig12,fig15,fig17,abl-connpool,abl-isolation,abl-replenish,abl-quantum,abl-hugepage,res-storm,res-recovery,res-tenant > "$$out/micro-full" && \
		(cd "$$out" && "$$bin/nadino-bench" -quick -run fig06,fabric-shard -trace -trace-out trace.json > trace-stdout) && \
		(cd "$$out" && "$$bin/nadino-bench" -quick -parallel 0 -run res-storm,res-recovery,res-tenant -telemetry telemetry > telemetry-stdout) && \
		(cd "$$out" && "$$bin/nadino-bench" -quick -parallel 0 -run clone-chaos -telemetry telemetry-clone > telemetry-clone-stdout && \
			rm telemetry-clone/*.json telemetry-clone/dashboard.html) && \
		$$sim > "$$out/sim-closed" && \
		$$sim -open-clients 2000 > "$$out/sim-open-clients" && \
		$$sim -trace-rps 20000 > "$$out/sim-trace-rps" && \
		$$sim -trace-file $(CURDIR)/configs/boutique-trace.csv > "$$out/sim-trace-file" && \
		"$$bin/nadino-boutique" > "$$out/nadino-boutique" || exit 1; \
		for ex in $(PARITY_EXAMPLES); do "$$bin/$$ex" > "$$out/example-$$ex" || exit 1; done; \
	done; \
	(cd "$$tmp/base" && find . -type f | sort) > "$$tmp/base.files"; \
	(cd "$$tmp/work" && find . -type f | sort) > "$$tmp/work.files"; \
	if ! cmp -s "$$tmp/base.files" "$$tmp/work.files"; then \
		echo "parity: output files differ from $(BASE) (< base, > working tree):"; \
		diff "$$tmp/base.files" "$$tmp/work.files"; \
		exit 1; \
	fi; \
	for out in $$(cat "$$tmp/work.files"); do \
		grep -v -e 'completed in' -e 'clock=wall' -e 'clock="wall"' "$$tmp/base/$$out" > "$$tmp/base.cmp"; \
		grep -v -e 'completed in' -e 'clock=wall' -e 'clock="wall"' "$$tmp/work/$$out" > "$$tmp/work.cmp"; \
		if ! cmp -s "$$tmp/base.cmp" "$$tmp/work.cmp"; then \
			echo "parity: $$out output differs from $(BASE); first difference (< base, > working tree):"; \
			diff "$$tmp/base.cmp" "$$tmp/work.cmp" | awk '/^[0-9]/ { if (++h > 1) exit } { print }'; \
			exit 1; \
		fi; \
	done; \
	echo "parity: quick suite, 50-seed fuzz report, full-fidelity micro-rigs, traced fig06/fabric-shard, telemetry exports, nadino-sim (4 load modes), nadino-boutique and examples byte-identical to $(BASE)"

# trace reproduces the Fig. 6 per-stage latency attribution and writes a
# Chrome trace-event file (load in chrome://tracing or ui.perfetto.dev).
trace:
	$(GO) run ./cmd/nadino-bench -run fig06 -quick -trace

# telemetry runs the res-storm experiment with the virtual-time scraper on,
# sharded across all cores (exports are identical to a sequential run), and
# smoke-checks the exported artifacts: non-empty series in every format plus
# the static dashboard.
telemetry:
	$(GO) run ./cmd/nadino-bench -run res-storm -quick -parallel 0 -telemetry telemetry
	@grep -q '^series,t_us,value' telemetry/res-storm-storm.series.csv
	@test $$(wc -l < telemetry/res-storm-storm.series.csv) -gt 1
	@grep -q '"key"' telemetry/res-storm-storm.series.json
	@grep -q '^# TYPE nadino_tenant_goodput_total counter' telemetry/res-storm-storm.prom
	@grep -q '"profile"' telemetry/summary.json
	@grep -q '"ph":"C"' telemetry/counters.trace.json
	@grep -q '<svg' telemetry/dashboard.html
	@echo "telemetry: exports OK -> telemetry/dashboard.html"
