#!/bin/sh
# Full pre-merge check: vet, build, test, then race-test the concurrent
# packages (pipelined datalet client, rpc, transports, controlet, client
# router). Mirrors `make check` for environments without make.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test ./...
go test -race \
	./internal/datalet/... \
	./internal/rpc/... \
	./internal/transport/... \
	./internal/controlet/... \
	./internal/client/...

# Observability stack: race the registry/tracer/HTTP endpoints, enforce the
# zero-alloc hot-path contract, and surface per-op allocation numbers.
go test -race ./internal/metrics/... ./internal/trace/... ./internal/obs/...
go test -run TestHotPathZeroAlloc ./internal/metrics/
go test -run NONE -bench 'CounterAdd|HistogramObserve' -benchmem ./internal/metrics/

# Cluster telemetry plane: windowing/sketch/SLO/aggregator units, the
# metrics label-cardinality guard, the cluster e2e (hot-shard detection
# plus the SLO alert lifecycle under a faultnet delay rule), and the
# zero-alloc recording contract with its per-op numbers.
go test -race ./internal/telemetry/...
go test -race -run 'TestLabelCardinality' ./internal/metrics/
go test -race -run 'TestTelemetryEndToEnd' ./internal/cluster/
go test -run TestRecordZeroAllocTelemetry ./internal/telemetry/
go test -run NONE -bench 'TelemetryRecord|SketchTouch' -benchmem ./internal/telemetry/

# Online shard migration: planner/mover units plus the cluster
# join/drain/AA+EC-floor scenarios under client load, race-detected.
go test -race ./internal/migrate/...
go test -race -run 'TestJoinNodeUnderLoad|TestDrainNodeUnderLoad|TestJoinNodeAAEC' ./internal/cluster/

# Wire-speed read path: multi-op wire frames (fuzz seeds), the client
# batch scheduler and lease cache, then the cluster direct-read, batching,
# hedging and linearizability-under-direct-reads suites, race-detected.
go test -race -run 'Multi|Fuzz' ./internal/wire/
go test -race -run 'TestDirectRead|TestHotKeyShadow|TestMultiGet|TestMultiPut|TestHedged|TestMSSCLinearizableWithDirectReads' ./internal/cluster/

# Nemesis fault injection: faultnet fabric/schedule units, the
# linearizability and convergence checkers, then every deployment mode
# under seeded fault schedules. Failing runs log their seed — replay with
# BESPOKV_NEMESIS_SEED=<seed>.
go test -race ./internal/faultnet/... ./internal/histcheck/...
go test -race -run 'TestNemesis' ./internal/cluster/

# Crash-restart durability: WAL and faultfs units, durable engine recovery
# suites, then the cluster crash/restart and incremental-rejoin scenarios.
# Same seed-replay convention as the nemesis suites.
go test -race ./internal/store/wal/... ./internal/store/faultfs/...
go test -race -run 'Durable|Crash|Torn|WAL|Recover|Snapshot|Persist|CleanClose' \
	./internal/store/ht/ ./internal/store/lsm/ ./internal/store/applog/
go test -race -run 'TestCrashRestart|TestRejoin' ./internal/cluster/

# Replicated control plane: the Raft-style RSM core (fuzz seeds included),
# the replicated coordinator/DLM/sequencer suites, the cluster
# control-plane nemesis scenarios (leader kill + partition under MS+SC
# load), and the allocation-free apply-path contract.
go test -race ./internal/rsm/...
go test -race -run 'Replicated|Sequencer|Follower|TestLockTableClock|TestTakeDeltaCap|TestClientBackoff|TestSplitAddrs|TestCloseAborts' \
	./internal/coordinator/ ./internal/dlm/ ./internal/sharedlog/
go test -race -run 'TestControlPlane' ./internal/cluster/
go test -run TestApplyZeroAlloc ./internal/rsm/

# Overload control: admission-gate/retry-budget/breaker units, the
# deadline wire-field fuzz seeds, client failure classification and retry
# discipline, controlet/datalet shed paths, then the cluster surge
# acceptance (goodput >= 80% of plateau at 4x load, bounded tail, no
# spurious failover, linearizable history). Same seed-replay convention.
go test -race ./internal/overload/...
go test -race -run 'Fuzz' ./internal/wire/
go test -race -run 'TestClassifyFailure|TestOverloaded|TestRetryBudget|TestBreaker|TestOpBudget|TestSustainedOverload' ./internal/client/
go test -race -run 'Shed|Deadline|Overload' ./internal/controlet/ ./internal/datalet/
go test -race -run 'TestOverload' ./internal/cluster/

# rpc envelope: frame and message-codec fuzz seeds race-detected, the
# allocation gate of a Lock-shaped round trip (not under -race, where
# sync.Pool sheds on purpose) and the layer's -benchmem numbers.
go test -race -run 'Fuzz|TestFrame|TestPayloadKinds|TestMarshalError|TestUnmarshalable' \
	./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/
go test -run TestCallWireAllocs ./internal/rpc/
go test -run NONE -bench 'CallWire|CallJSON|LockUnlock|Append1$|ReadBatch' -benchmem -cpu 1,2 \
	./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/

# Repository benchmark smoke test (nested module, outside ./...): all six
# workloads at -quick sizes plus the traced layer ladder, ~5 s.
go -C benchmark test ./...
