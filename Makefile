GO ?= go

# Packages whose concurrency is stress-tested under the race detector:
# the pipelined datalet client, the RPC layer, transports, controlet
# replication paths, and the client router.
RACE_PKGS = ./internal/datalet/... ./internal/rpc/... ./internal/transport/... ./internal/controlet/... ./internal/client/...

# Observability packages: the metrics registry, trace recorder, and the
# HTTP introspection endpoints (including the end-to-end cluster test).
OBS_PKGS = ./internal/metrics/... ./internal/trace/... ./internal/obs/...

.PHONY: all check vet build test race obs telemetry migrate nemesis crash wirespeed rsm overload rpcwire bench-smoke bench bench-pipeline clean

all: check

check: vet build test race obs telemetry migrate nemesis crash wirespeed rsm overload rpcwire bench-smoke

# rpcwire guards the rpc envelope that carries every AA-mode lock and log
# append: the frame and message-codec fuzz seeds under the race detector,
# then the allocation gate of a Lock-shaped round trip (not under -race,
# where sync.Pool sheds on purpose) with the layer's -benchmem numbers.
rpcwire:
	$(GO) test -race -run 'Fuzz|TestFrame|TestPayloadKinds|TestMarshalError|TestUnmarshalable' ./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/
	$(GO) test -run TestCallWireAllocs ./internal/rpc/
	$(GO) test -run NONE -bench 'CallWire|CallJSON|LockUnlock|Append1$$|ReadBatch' -benchmem -cpu 1,2 ./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/

# bench-smoke runs the repository benchmark (benchmark/, a nested module
# outside ./...) at -quick sizes, ~5 s: all six workloads end to end with
# the output check, and the traced layer ladder — whose dlm.Client.Lock and
# sharedlog.Client.Append rungs are what an rpc change breaks first.
bench-smoke:
	$(GO) -C benchmark test ./...

# overload race-tests the end-to-end overload-control plane: the
# admission-gate/retry-budget/breaker units and the deadline wire-field
# fuzz seeds, the client failure-classification and retry-discipline
# suites, the controlet/datalet shed paths, and the cluster overload
# nemesis acceptance — a 4x surge against slowed engines must hold
# goodput at >= 80% of the pre-overload plateau with a bounded success
# tail, zero spurious failovers, and a linearizable history (Overloaded
# answers recorded as non-acked). A failing run logs its seed; replay
# with BESPOKV_NEMESIS_SEED=<seed>.
overload:
	$(GO) test -race ./internal/overload/...
	$(GO) test -race -run 'Fuzz' ./internal/wire/
	$(GO) test -race -run 'TestClassifyFailure|TestOverloaded|TestRetryBudget|TestBreaker|TestOpBudget|TestSustainedOverload' ./internal/client/
	$(GO) test -race -run 'Shed|Deadline|Overload' ./internal/controlet/ ./internal/datalet/
	$(GO) test -race -run 'TestOverload' ./internal/cluster/

# rsm race-tests the replicated control plane end to end: the Raft-style
# core (election, replication, persistence, snapshots — fuzz seeds
# included), the replicated coordinator/DLM/sequencer services, and the
# cluster control-plane nemesis suites (leader kill and partition under
# MS+SC load, checked for zero acked-write loss and linearizability).
# The apply path must stay allocation-free (TestApplyZeroAlloc). A failing
# nemesis run logs its seed; replay with BESPOKV_NEMESIS_SEED=<seed>.
rsm:
	$(GO) test -race ./internal/rsm/...
	$(GO) test -race -run 'Replicated|Sequencer|Follower|TestLockTableClock|TestTakeDeltaCap|TestClientBackoff|TestSplitAddrs|TestCloseAborts' ./internal/coordinator/ ./internal/dlm/ ./internal/sharedlog/
	$(GO) test -race -run 'TestControlPlane' ./internal/cluster/
	$(GO) test -run TestApplyZeroAlloc ./internal/rsm/

# crash race-tests the storage fault story end to end: the WAL and faultfs
# units, the durable ht/lsm/applog engine recovery suites, and the cluster
# crash-restart/incremental-rejoin scenarios. A failing run logs its seed;
# replay it with BESPOKV_NEMESIS_SEED=<seed>.
crash:
	$(GO) test -race ./internal/store/wal/... ./internal/store/faultfs/...
	$(GO) test -race -run 'Durable|Crash|Torn|WAL|Recover|Snapshot|Persist|CleanClose' ./internal/store/ht/ ./internal/store/lsm/ ./internal/store/applog/
	$(GO) test -race -run 'TestCrashRestart|TestRejoin' ./internal/cluster/

# wirespeed race-tests the direct-read data path end to end: the multi-op
# wire frames (fuzz seeds included), the client batch scheduler and lease
# cache units, and the cluster suites covering direct reads under epoch
# churn, shard-coalesced MultiGet/MultiPut in every mode, hedged reads
# under injected delay, and MS+SC linearizability with direct readers.
wirespeed:
	$(GO) test -race -run 'Multi|Fuzz' ./internal/wire/
	$(GO) test -race ./internal/client/
	$(GO) test -race -run 'TestDirectRead|TestHotKeyShadow|TestMultiGet|TestMultiPut|TestHedged|TestMSSCLinearizableWithDirectReads' ./internal/cluster/

# nemesis race-tests the fault plane end to end: the faultnet fabric and
# schedule units, the linearizability/convergence checker units, and the
# cluster chaos suites that run every mode under seeded fault schedules.
# A failing run logs its seed; replay it with BESPOKV_NEMESIS_SEED=<seed>.
nemesis:
	$(GO) test -race ./internal/faultnet/... ./internal/histcheck/...
	$(GO) test -race -run 'TestNemesis' ./internal/cluster/

# migrate race-tests the online-resize path end to end: the migrate
# package's planner/mover units plus the cluster join/drain/AA+EC-floor
# scenarios under client load.
migrate:
	$(GO) test -race ./internal/migrate/...
	$(GO) test -race -run 'TestJoinNodeUnderLoad|TestDrainNodeUnderLoad|TestJoinNodeAAEC' ./internal/cluster/

# obs race-tests the observability stack and guards the hot-path contract:
# Counter.Add and Histogram.Observe must stay allocation-free (the zero
# allocs/op assertion lives in TestHotPathZeroAlloc; the -benchmem run
# makes regressions visible in review output too).
obs:
	$(GO) test -race $(OBS_PKGS)
	$(GO) test -run TestHotPathZeroAlloc ./internal/metrics/
	$(GO) test -run NONE -bench 'CounterAdd|HistogramObserve' -benchmem ./internal/metrics/

# telemetry race-tests the cluster telemetry plane end to end: the
# telemetry package units (windowing, hot-key sketch, SLO burn-rate state
# machine, aggregator merge/staleness), the label-cardinality guard, the
# cluster e2e (skewed workload → hot shard + hot keys in /clusterz;
# faultnet delay → SLO pending→firing→resolved without flapping), and the
# hot-path contract: Record/Touch must stay allocation-free (asserted in
# TestRecordZeroAllocTelemetry; the -benchmem run keeps the per-op numbers
# visible in review output).
telemetry:
	$(GO) test -race ./internal/telemetry/...
	$(GO) test -race -run 'TestLabelCardinality' ./internal/metrics/
	$(GO) test -race -run 'TestTelemetryEndToEnd' ./internal/cluster/
	$(GO) test -run TestRecordZeroAllocTelemetry ./internal/telemetry/
	$(GO) test -run NONE -bench 'TelemetryRecord|SketchTouch' -benchmem ./internal/telemetry/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

bench-pipeline:
	$(GO) test -run NONE -bench 'Pipelined|Lockstep' -benchtime 2s ./internal/datalet/

clean:
	$(GO) clean ./...
