# SOFT reproduction — build/verify entry points.
#
#   make build         compile everything
#   make vet           static analysis
#   make test          full test suite (tier-1 gate: build + test)
#   make race          race-detector pass over the concurrency-sensitive packages
#   make e2e-dist      multi-process distributed exploration e2e (coordinator +
#                      2 workers + worker kill, byte-identity vs -workers 4)
#   make e2e-matrix    multi-process campaign e2e (2×2 matrix on a 2-worker
#                      fleet, worker kill mid-campaign, byte-identity vs a
#                      fleetless run, warm store re-run)
#   make e2e-serve     campaign-service e2e (submit to soft campaignd,
#                      SIGKILL the daemon mid-campaign, restart on the same
#                      store, byte-identity of the resumed report)
#   make e2e-scenario  scenario determinism e2e (sequential vs 4 workers vs a
#                      2-worker fleet, byte-identity) plus the pinned stateful
#                      ref-vs-ovs regression
#   make dist-demo     run a coordinator and two workers locally for a quick look
#   make bench-matrix  campaign throughput metrics: cold + warm 2×2 campaign,
#                      merged into BENCH_matrix.json (cells/sec, cache-hit
#                      rate); the file's other objects are kept
#   make bench-scenario cold scenario exploration baselines (paths/sec at
#                      1/2/4/8 workers over two seed scenarios), merged into
#                      BENCH_matrix.json's scenario_cold object
#   make bench-dist    fleet scaling points: the FlowMod matrix on a real TCP
#                      fleet at 1/2/4 worker processes (paths/sec, lease-RTT
#                      p50/p99), merged into BENCH_matrix.json's dist_scaling
#                      object
#   make bench         the paper's evaluation benches + parallel scaling benches
#   make bench-solver  solver-stack scaling benches (parallel explore,
#                      sessions vs the fresh-solver reference, sharded-cache
#                      crosscheck) — run on multicore hardware for meaningful
#                      numbers
#   make bench-smoke   every scaling bench once (CI bit-rot guard, no timing value)
#   make check         build + vet + test (what CI should run)

GO ?= go

.PHONY: build vet test race e2e-dist e2e-matrix e2e-serve e2e-scenario dist-demo bench bench-matrix bench-scenario bench-dist bench-solver bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sat/ ./internal/bitblast/ ./internal/symexec/ ./internal/harness/ ./internal/solver/ ./internal/crosscheck/ ./internal/dist/ ./internal/sched/ ./internal/campaignd/ ./internal/scenario/ ./internal/obs/ .

e2e-dist:
	$(GO) test -run TestDistE2E -v ./cmd/soft/

e2e-matrix:
	$(GO) test -run TestMatrixE2E -v ./cmd/soft/

e2e-serve:
	$(GO) test -run TestCampaignServeE2E -v ./cmd/soft/

e2e-scenario:
	$(GO) test -run 'TestScenarioDeterminismAcrossLayouts|TestScenarioExposesStatefulInconsistency' -v .

# Campaign throughput trajectory: run the same small campaign cold (store
# empty) then warm (all cells cached); both passes merge their metrics into
# BENCH_matrix.json as its "cold" and "warm" objects (cells/sec over
# explored cells, cache-hit rate); every other object in the file is kept.
# Timings are only meaningful on quiet multicore hardware, but the JSON
# schema is what perf tracking keys on.
bench-matrix:
	$(GO) build -o /tmp/soft-bench-matrix-bin ./cmd/soft
	@store=$$(mktemp -d /tmp/soft-bench-matrix.XXXXXX); \
	/tmp/soft-bench-matrix-bin matrix -agents ref,modified \
		-tests "Packet Out,Stats Request" -store $$store \
		-code-version bench -bench-json BENCH_matrix.json >/dev/null && \
	/tmp/soft-bench-matrix-bin matrix -agents ref,modified \
		-tests "Packet Out,Stats Request" -store $$store \
		-code-version bench -bench-json BENCH_matrix.json >/dev/null; \
	status=$$?; rm -rf $$store; exit $$status
	@cat BENCH_matrix.json

# Cold scenario exploration baselines: paths/sec for two seed scenarios at
# 1/2/4/8 workers, each run engine-cold (no store involved — the metric is
# raw multi-message exploration throughput). Results merge into
# BENCH_matrix.json's "scenario_cold" object keyed "<scenario>/w<N>".
bench-scenario:
	$(GO) build -o /tmp/soft-bench-scenario-bin ./cmd/soft
	@for sc in "Add Modify" "Netplugin VXLAN"; do \
		for w in 1 2 4 8; do \
			/tmp/soft-bench-scenario-bin explore -scenario "$$sc" -workers $$w \
				-bench-json BENCH_matrix.json -o /dev/null || exit 1; \
		done; \
	done
	@cat BENCH_matrix.json

# Distributed scaling points: the same FlowMod exploration matrix driven
# through a real TCP fleet at 1, 2, and 4 worker processes. Crosscheck and
# model extraction are off so the metric is shard exploration throughput;
# determinism makes every width's report byte-identical, so only the
# timing and lease-RTT quantiles differ across the three dist_scaling/w<N>
# objects merged into BENCH_matrix.json. Run on quiet multicore hardware.
BENCH_DIST_ADDR ?= 127.0.0.1:7479
bench-dist:
	$(GO) build -o /tmp/soft-bench-dist-bin ./cmd/soft
	@for w in 1 2 4; do \
		echo "== fleet width $$w =="; \
		/tmp/soft-bench-dist-bin matrix -agents ref,modified -tests FlowMod \
			-crosscheck=false -models=false -addr $(BENCH_DIST_ADDR) -shard-depth 4 \
			-bench-dist $$w -bench-json BENCH_matrix.json -o /dev/null & \
		pid=$$!; sleep 0.3; \
		i=0; while [ $$i -lt $$w ]; do \
			i=$$((i+1)); \
			/tmp/soft-bench-dist-bin work -addr $(BENCH_DIST_ADDR) -name bench-w$$i & \
		done; \
		wait $$pid || exit 1; wait; \
	done
	@cat BENCH_matrix.json

# A 10-second look at distributed exploration on one machine: coordinator on
# an ephemeral-ish port, two workers, result on stdout-adjacent files under
# /tmp. The serve process exits once both workers have drained the shards.
DIST_DEMO_ADDR ?= 127.0.0.1:7473
dist-demo:
	$(GO) build -o /tmp/soft-dist-demo ./cmd/soft
	@echo "== coordinator on $(DIST_DEMO_ADDR), 2 workers, agent=ref test='Packet Out' =="
	@/tmp/soft-dist-demo serve -addr $(DIST_DEMO_ADDR) -agent ref -test "Packet Out" \
		-shard-depth 4 -progress -v -timeout 2m -o /tmp/soft-dist-demo.results & \
	sleep 0.3; \
	/tmp/soft-dist-demo work -addr $(DIST_DEMO_ADDR) -name demo-worker-1 -v & \
	/tmp/soft-dist-demo work -addr $(DIST_DEMO_ADDR) -name demo-worker-2 -v & \
	wait
	@echo "== merged results =="
	@head -n 6 /tmp/soft-dist-demo.results
	@echo "   ... (full file: /tmp/soft-dist-demo.results)"

bench:
	$(GO) test -bench=. -benchmem .

bench-solver:
	$(GO) test -run NONE -bench 'ExploreParallel|CrossCheck' -benchmem . ./internal/harness/

bench-smoke:
	$(GO) test -run NONE -bench 'ExploreParallel|CrossCheck' -benchtime=1x . ./internal/harness/
	$(GO) build -o /tmp/soft-bench-smoke-bin ./cmd/soft
	@/tmp/soft-bench-smoke-bin explore -scenario "Add Modify" -o /dev/null

check: build vet test
