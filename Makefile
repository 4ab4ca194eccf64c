# Developer entry points. `make verify` is the tier-1 gate every change must
# pass; see .claude/skills/verify/SKILL.md for the full end-to-end recipe.

GO ?= go

# Must-run gates: contract tests that must actually run, not merely not
# fail — a gate fails when its `go test` run fails or when any test it names
# does not report PASS (a skipped or filtered-out test fails it too). One
# entry per `go test` run, five fields:
#   gate  package  -run pattern  race|plain  tests that must PASS (comma-separated)
#
# mathx-accuracy: the fast erf's |error| ≤ 1e-7 sweep, and exact mode as
#   the bit-identical default.
# precision-accuracy: the float32 erf sweep (|error| ≤ 1e-6), the tier
#   contracts (float32 ≤ 1e-5, quantized ≤ 1e-3 max relative estimate
#   error against float64) and the verify gate's fallback.
# network-resilience: wire chaos with exact admission accounting, the
#   504 deadline path against a wedged writer, the coalescer's cancellation
#   race, and the client's never-retry-feedback contract.
# shard-determinism: K-shard models serve, learn, checkpoint and ANALYZE
#   exactly like K=1 at every worker count, precision tier and erf mode.
# ingest-lag: ≥ 10k mutations into serving models under the race detector,
#   exactly-once replay from a restored cursor (K=1 and K=4), and the drift
#   detector scheduling a background ANALYZE.
# lifecycle: eviction writes a checkpoint exactly when the model changed
#   since its newest file, served-estimate counts survive evictions, and
#   seeded operation sequences through evict/restore match a reference
#   estimator bit for bit.
GATES = \
	mathx-accuracy ./internal/mathx/ 'TestFastErfAccuracy|TestModeDefaultExact' plain \
		TestFastErfAccuracy,TestModeDefaultExact \
	precision-accuracy ./internal/mathx/ TestFastErf32Accuracy plain TestFastErf32Accuracy \
	precision-accuracy ./internal/kde/ TestPrecisionTierContracts plain TestPrecisionTierContracts \
	precision-accuracy ./internal/core/ TestPrecisionVerifyGate plain TestPrecisionVerifyGate \
	network-resilience ./internal/httpserve/ \
		'TestNetworkChaosAccountingExact|TestShedWhenSaturated|TestDeadlinePropagatesToModel' race \
		TestNetworkChaosAccountingExact,TestDeadlinePropagatesToModel \
	network-resilience ./internal/serve/ \
		'TestCancelRaceExactAccounting|TestCloseDrainsWithCancelledRequests' race \
		TestCancelRaceExactAccounting \
	network-resilience ./internal/httpclient/ \
		'TestFeedbackAndAnalyzeNeverRetried|TestEstimateRetriesTransientFailures' race \
		TestFeedbackAndAnalyzeNeverRetried \
	shard-determinism ./internal/shard/ \
		'TestShardBitIdentity|TestShardCheckpointRoundTrip|TestShardFeedbackInvariance|TestShardAnalyzeGolden' plain \
		TestShardBitIdentity,TestShardCheckpointRoundTrip,TestShardFeedbackInvariance,TestShardAnalyzeGolden \
	ingest-lag ./internal/ingest/ TestIngestRaceUnderServing race TestIngestRaceUnderServing \
	ingest-lag ./internal/ingest/ \
		'TestIngestExactlyOnceRestoreCore|TestIngestExactlyOnceRestoreSharded|TestIngestDriftTriggersAnalyze' plain \
		TestIngestExactlyOnceRestoreCore,TestIngestExactlyOnceRestoreSharded,TestIngestDriftTriggersAnalyze \
	lifecycle ./internal/registry/ \
		'TestEvictCleanModelWritesNothing|TestEvictDirtyModelWrites|TestServedCountSurvivesEviction|TestLifecycleLockstep' race \
		TestEvictCleanModelWritesNothing,TestEvictDirtyModelWrites,TestServedCountSurvivesEviction,TestLifecycleLockstep

GATE_NAMES = mathx-accuracy precision-accuracy network-resilience shard-determinism ingest-lag lifecycle

.PHONY: verify fmtcheck build test race race-resilience gates $(GATE_NAMES) chaos vet bench bench-module

verify: fmtcheck vet build bench-module race-resilience gates race

# Fail when any file needs gofmt; list the offenders.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bench/ is its own Go module, so the root ./... builds skip it: vet and
# test it here, so that removing an API the benchmark calls fails verify
# rather than the benchmark run. Its smoke test removes the .bench_build/
# it creates.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-check the resilience and serving layers first: the fault injector,
# the degradation machinery, the request coalescer, the multi-model registry
# lifecycle, and the process-global erf switch are the most
# concurrency-sensitive code in the tree. (Go's test cache makes the overlap
# with `race` free when nothing changed.)
race-resilience:
	$(GO) test -race ./internal/fault/... ./internal/core/... ./internal/serve/... \
		./internal/mathx/... ./internal/kde/... ./internal/checkpoint/... \
		./internal/registry/... ./internal/shard/... ./internal/ingest/... \
		./internal/table/...

gates: $(GATE_NAMES)

$(GATE_NAMES):
	@set -- $(GATES); while [ $$# -gt 0 ]; do \
		if [ "$$1" = $@ ]; then \
			race=; if [ "$$4" = race ]; then race=-race; fi; \
			out="$$($(GO) test $$race -count=1 -run "$$3" -v $$2)"; status=$$?; echo "$$out"; \
			if [ $$status -ne 0 ]; then exit $$status; fi; \
			for t in $$(echo "$$5" | tr , ' '); do \
				echo "$$out" | grep -q -- "--- PASS: $$t " || \
					{ echo "$@: $$t did not run"; exit 1; }; \
			done; \
		fi; \
		shift 5; \
	done

# Chaos suite: deterministic fault schedules (failed transfers/launches,
# diverged optimizers, non-finite gradients, corrupted checkpoints) against
# every estimator mode, asserting the degradation-ladder acceptance criteria.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestTransientFault|TestOptimizerDivergence|TestFeedbackPanic|TestCheckpointCorruption|TestServerDeviceFault' ./internal/core/

# The serving benchmark: every workload of BENCHMARK.json over loopback
# HTTP (see bench/README.md).
bench:
	bash bench/run.sh --workload all
