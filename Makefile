GO ?= go
# Benchmark snapshot index: bump per PR so the perf trajectory accumulates
# (BENCH_1.json, BENCH_2.json, …).
BENCH_N ?= 10

.PHONY: all build test vet race bench benchjson benchcheck chaos experiments clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages that fan work out across goroutines.
race:
	$(GO) test -race ./internal/par/ ./internal/graph/ ./internal/combinat/ ./internal/dist/ ./internal/obs/ .
	$(GO) test -race -count=20 -run '^(TestPooledStateCleanAfterWitnessTask|TestTableBuildCancellation|TestSolveTablesMatchConstraintSetOracle)$$' ./internal/protocol/

# The chaos suite under the race detector: fault injection, cancellation,
# budget trips, leak checks, the hardened service, the distributed sweep
# tier (worker crashes, stragglers, corrupt responses, Byzantine liars with
# quorum cross-validation + quarantine + degraded serving, coordinator
# kill/restart recovery) and the crash-resume matrix (kill-and-restart over
# solver/homology/dist checkpoints, SIGKILL torn-write atomicity), each test
# individually time-boxed so a stuck drain fails fast instead of hanging CI.
# Every command is raced too: the interrupt, SIGTERM-drain and checkpoint
# tests drive each one in-process through the shared cli lifecycle.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Cancel|Leak|Budget|Serve|Flight|Snapshot|Deadline|Dist|Ring|Journal|Race|Obs|Trace|Metrics|Log|Checkpoint|Resume|Kill|Durable|Byzantine|Lie|Quarantine|Verify|Degrade|Duplicate|PickWorker|ProbeInterval|Interrupt|SIGTERM' \
		./internal/faultinject/ ./internal/par/ ./internal/protocol/ \
		./internal/model/ ./internal/homology/ ./internal/memo/ \
		./internal/cli/ ./internal/serve/ ./internal/dist/ ./internal/obs/ \
		./internal/checkpoint/ ./internal/durable/ \
		./internal/core/ ./internal/topology/ ./internal/graph/ \
		./internal/experiments/ ./cmd/...

# Smoke-run every benchmark once (also re-validates the E1–E17 tables).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Record the machine-readable perf snapshot for this PR.
benchjson:
	$(GO) run ./cmd/ksetbench -out BENCH_$(BENCH_N).json

# Re-measure and fail when any tracked benchmark regresses >25% against the
# committed snapshot (the CI regression gate, runnable locally).
benchcheck:
	$(GO) run ./cmd/ksetbench -out BENCH_ci.json -against BENCH_$(BENCH_N).json

experiments:
	$(GO) run ./cmd/ksetexperiments

# Removes only the CI scratch snapshot: the BENCH_<n>.json files are the
# committed perf trajectory.
clean:
	rm -f BENCH_ci.json
