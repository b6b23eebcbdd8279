#!/bin/sh
# The gate list, in one place: `scripts/check.sh [target...]` runs the named
# gates (no argument: all of them, i.e. `check`), and every Makefile gate
# target is a one-line call into this file — so a renamed test can drop out
# of at most one -run regex, and it is the one everybody runs.
#
# Suites that inject faults from a seed log it on failure; replay with
# BESPOKV_NEMESIS_SEED=<seed>.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

ALL="vet build test race obs telemetry migrate nemesis crash wirespeed rsm overload rpcwire writepath aaec aasc transport options bench-smoke"

run() {
	case "$1" in
	check)
		for t in $ALL; do run "$t"; done
		;;
	# go vet, and gofmt over every Go file of the repository (the nested
	# benchmark module included): any file it lists fails the gate.
	vet)
		$GO vet ./...
		unformatted=$(gofmt -l bench_test.go benchmark cmd examples internal)
		if [ -n "$unformatted" ]; then
			echo "check.sh: not gofmt-clean (run gofmt -w):" >&2
			echo "$unformatted" >&2
			exit 1
		fi
		;;
	build) $GO build ./... ;;
	test) $GO test ./... ;;

	# Packages whose concurrency is stress-tested under the race detector:
	# the pipelined datalet client, the rpc layer, transports, controlet
	# replication paths, and the client router. Then, repeated, the
	# split-phase call's properties — a queued call is not held behind an
	# unwaited inline one, Waits complete in any order, a caller busy
	# between Start and Wait is not a stall — and the stress run mixing
	# Start/Wait, Do and DoAsync on shared connections.
	race)
		$GO test -race ./internal/datalet/... ./internal/rpc/... ./internal/transport/... \
			./internal/controlet/... ./internal/client/...
		$GO test -race -count=5 -run 'TestPipelineStress|TestStartReleasesSendBuffer|TestWaitOrderFree|TestStartedCallOutlivesWatchdog' \
			./internal/datalet/
		;;

	# Observability stack: race the metrics registry, trace recorder and
	# HTTP endpoints (end-to-end cluster test included, and the /metrics
	# series golden: one op of each client kind through a 1x3 cluster, the
	# same series set, a datalet PUT counted once per replica, no op counter
	# backwards across a node restart), enforce the hot-path contract —
	# Counter.Add and Histogram.Observe stay allocation-free
	# (TestHotPathZeroAlloc) — and keep the per-op numbers visible in review
	# output. Then the greps that keep one per-op record: no second per-op
	# metrics type or datalet-private filter under internal/, and no
	# histogram bucket array outside internal/metrics.
	obs)
		$GO test -race ./internal/metrics/... ./internal/trace/... ./internal/obs/...
		$GO test -run TestHotPathZeroAlloc ./internal/metrics/
		if grep -rnE --include='*.go' 'OpMetrics|recordDirectGet' internal/; then
			echo "check.sh: a second per-op record; a hop stamps its telemetry.Recorder" >&2
			exit 1
		fi
		if grep -rnE --include='*.go' '[Bb]uckets? +\[[^]]*\]atomic\.Int64' internal/ | grep -v '^internal/metrics/'; then
			echo "check.sh: a latency histogram outside internal/metrics; use metrics.Histogram" >&2
			exit 1
		fi
		$GO test -run NONE -bench 'CounterAdd|HistogramObserve' -benchmem ./internal/metrics/
		;;

	# Cluster telemetry plane: windowing/sketch/SLO/aggregator units, the
	# metrics label-cardinality guard, the cluster e2e (skewed workload →
	# hot shard + hot keys in /clusterz; faultnet delay → SLO
	# pending→firing→resolved without flapping), and the zero-alloc
	# RecordOp/Touch contract with its per-op numbers: the whole hop
	# epilogue (BenchmarkTelemetryRecord) printed beside the controlet's
	# routed GET it rides on.
	telemetry)
		$GO test -race ./internal/telemetry/...
		$GO test -race -run 'TestLabelCardinality' ./internal/metrics/
		$GO test -race -run 'TestTelemetryEndToEnd' ./internal/cluster/
		$GO test -run TestRecordZeroAllocTelemetry ./internal/telemetry/
		$GO test -run NONE -bench 'TelemetryRecord|SketchTouch' -benchmem ./internal/telemetry/
		$GO test -run NONE -bench 'Dispatch/ms\+strong/get' -benchmem ./internal/controlet/
		;;

	# Online shard migration: planner/mover units plus the cluster
	# join/drain/AA+EC-floor scenarios under client load.
	migrate)
		$GO test -race ./internal/migrate/...
		$GO test -race -run 'TestJoinNodeUnderLoad|TestDrainNodeUnderLoad|TestJoinNodeAAEC' ./internal/cluster/
		;;

	# Fault plane: the faultnet fabric and schedule units, the
	# linearizability/convergence checker units, then every deployment
	# mode under seeded fault schedules.
	nemesis)
		$GO test -race ./internal/faultnet/... ./internal/histcheck/...
		$GO test -race -run 'TestNemesis' ./internal/cluster/
		;;

	# Crash-restart durability and the one change feed: every store suite
	# (WAL and faultfs units, the durable ht/lsm/applog recovery suites,
	# and the enginetest conformance run on all four engines, whose
	# tombstones must outlive leaf splits, flushes and compactions), then
	# the cluster crash-restart and incremental-rejoin scenarios. Then the
	# grep that keeps one feed: no delta side-interface, no engine that
	# drops tombstones, no export that cannot list them, no prune sweep.
	crash)
		$GO test -race ./internal/store/...
		$GO test -race -run 'TestCrashRestart|TestRejoin' ./internal/cluster/
		if grep -rnE --include='*.go' 'SnapshotSince|DeltaSnapshotter|ErrDeltaUnavailable|OpExportDelta|ExportSince|purgeTombstones|tombFloor|func \(s \*Server\) prune' internal/; then
			echo "check.sh: a second change feed; every engine keeps its tombstones and lists them through Snapshot(since)" >&2
			exit 1
		fi
		;;

	# Direct-read data path: the multi-op wire frames (fuzz seeds
	# included), the client batch scheduler and lease cache units, and the
	# cluster suites covering direct reads under epoch churn,
	# shard-coalesced MultiGet/MultiPut in every mode, hedged reads under
	# injected delay, and MS+SC linearizability with direct readers. Every
	# one of those reads crosses a datalet.Link, the one place in the data
	# plane that decides a connection set died and dials another: direct
	# reads must come back after their datalet restarts on the same address;
	# no caller-side pool cache, drop or cooldown may reappear, and DialPool
	# keeps to the connection sets that are dial-once on purpose (the
	# controlet's local link, the raw benchmark clients, the fixed backends
	# of the twemproxy and dynomite baselines); the lookup every op pays is
	# printed beside the mutex + map it replaced. A direct read costs its
	# keys: the client's bucket grouping agrees with the map-based oracle
	# (TestBucketByShard), a direct MultiGet's bucket frames and an unhedged
	# direct Get are sent and read by the caller (TestMultiGetDirectInline),
	# a burst of replies telling a stale client of an epoch bump makes one
	# map fetch, not one each (TestDirectReadStaleMapRefreshesOnce); the
	# client calls DoAsync only to race a hedge's two legs, and a 16-key
	# direct MultiGet over two shards allocates at most 44 times, datalets
	# included (not under -race, where sync.Pool sheds).
	wirespeed)
		$GO test -race -run 'Multi|Fuzz' ./internal/wire/
		$GO test -race ./internal/client/
		$GO test -race -count=5 -run 'TestDirectReadsResumeAfterDataletRestart' ./internal/client/
		$GO test -race -run 'TestDirectRead|TestHotKeyShadow|TestMultiGet|TestMultiPut|TestHedged|TestMSSCLinearizableWithDirectReads' ./internal/cluster/
		if grep -rnE 'dropPeer|dropPool|dropDataletPeer|dropDataletPool|dpoolDown|dpoolCooldown|map\[string\]\*datalet\.Pool' internal/; then
			echo "check.sh: a caller-side pool cache is back; use datalet.Links" >&2
			exit 1
		fi
		if grep -rn 'datalet\.DialPool' cmd/ examples/ internal/ |
			grep -vE '^internal/(controlet/controlet\.go|bench/|baseline/twemproxy/|baseline/dynomite/)'; then
			echo "check.sh: datalet.DialPool has a new caller; a peer is reached through datalet.Links" >&2
			exit 1
		fi
		$GO test -run NONE -bench LinksGet -benchmem -cpu 1,2 ./internal/datalet/
		if grep -rn --include='*.go' 'DoAsync' internal/client/ | grep -v '_test\.go:' | grep -v '^internal/client/hedge\.go:'; then
			echo "check.sh: the client calls DoAsync outside a hedge; start a lone call with Link.Start" >&2
			exit 1
		fi
		out=$($GO test -run NONE -bench 'MultiGetDirect$' -benchtime 20000x -benchmem ./internal/cluster/)
		echo "$out"
		echo "$out" | awk '/^BenchmarkMultiGetDirect/ { n++; if ($(NF-1) > 44) bad = 1 }
			END { if (bad || n != 1) { print "check.sh: a 16-key direct MultiGet allocates more than 44 times"; exit 1 } }'
		;;

	# The control plane, one RSM group per service: the Raft-style core
	# (election, replication, persistence, snapshots — fuzz seeds included —
	# and the group of one that leads at start, applies inside Submit and
	# keeps nothing) and the one leader-following client every control
	# service is reached through (rsm.Client: rotation, redirects, timeouts,
	# Close, one-way Send, the idle-reset wedge), the replicated
	# coordinator/DLM/sequencer services with their binary checkpoints, a
	# parked Lock granted within 50 ms of the release in a group of one and
	# of three, the cluster control-plane nemesis suites (leader kill and
	# partition under MS+SC load, checked for zero acked-write loss and
	# linearizability), the allocation-free apply path (TestApplyZeroAlloc),
	# and — since every AA Lock/Unlock/Append crosses that client — the
	# Lock + Unlock allocation ceiling. Then the greps that keep one path:
	# no standalone branch in the three services, no encoding/json on the
	# lease table's or the sequencer's commands and checkpoints. Last, the
	# hot-path benchmarks through a group of one beside the 3-member append.
	rsm)
		$GO test -race ./internal/rsm/...
		$GO test -race -run 'Replicated|Sequencer|TestFollowerRejectsMutations|TestLockTableClock|TestTakeDeltaCap|TestParkedLockWakesOnRelease|TestLockTableCheckpoint|TestHostileCountRejected' \
			./internal/coordinator/ ./internal/dlm/ ./internal/sharedlog/
		$GO test -race -run 'TestControlPlane' ./internal/cluster/
		$GO test -run TestApplyZeroAlloc ./internal/rsm/
		$GO test -run 'TestLockUnlockAllocs' ./internal/dlm/
		if grep -rnE --include='*.go' '(node|rsm) (==|!=) nil' internal/coordinator/ internal/dlm/ internal/sharedlog/ |
			grep -v '_test\.go:'; then
			echo "check.sh: a standalone branch is back; a service without peers is a group of one" >&2
			exit 1
		fi
		if grep -rn --include='*.go' 'json\.Marshal' internal/dlm/ internal/sharedlog/ | grep -v '_test\.go:'; then
			echo "check.sh: encoding/json in the lease table or the sequencer; their commands and checkpoints are binary" >&2
			exit 1
		fi
		$GO test -run NONE -bench 'LockUnlock|Append1$|Append1Replicated' -benchmem ./internal/dlm/ ./internal/sharedlog/
		;;

	# Overload control: the admission-gate/retry-budget/breaker units (an
	# admitted op that did not wait allocates nothing and, with the
	# controller at rest, takes neither the gate's lock nor a clock
	# reading) and the deadline wire-field fuzz seeds, the client failure-classification
	# and retry-discipline suites, the controlet/datalet shed paths, and
	# the cluster overload nemesis acceptance — a 4x surge against slowed
	# engines must hold goodput at >= 80% of the pre-overload plateau with
	# a bounded success tail, zero spurious failovers, and a linearizable
	# history (Overloaded answers recorded as non-acked).
	overload)
		$GO test -race ./internal/overload/...
		$GO test -run TestGateAdmitZeroAllocs ./internal/overload/
		$GO test -run NONE -bench GateAdmit -benchmem -cpu 1,2 ./internal/overload/
		$GO test -race -run 'Fuzz' ./internal/wire/
		$GO test -race -run 'TestClassifyFailure|TestOverloaded|TestRetryBudget|TestBreaker|TestOpBudget|TestSustainedOverload' ./internal/client/
		$GO test -race -run 'Shed|Deadline|Overload' ./internal/controlet/ ./internal/datalet/
		$GO test -race -run 'TestOverload' ./internal/cluster/
		;;

	# The rpc layer that carries every AA-mode lock and log append: the
	# frame and message-codec fuzz seeds (one-way frames included) and the
	# ordering guarantee — ordered handlers start in arrival order, a parked
	# call blocks nobody, a one-way Unlock never overtakes the next Lock,
	# in a group of one and of three — under the race detector; then the two
	# allocation gates, a Lock-shaped ordered round trip and a Lock + Unlock
	# pair through a real lock server (not under -race, where sync.Pool
	# sheds on purpose), with the layer's -benchmem numbers.
	rpcwire)
		$GO test -race -run 'Fuzz|TestFrame|TestPayloadKinds|TestMarshalError|TestUnmarshalable|Ordered|TestSendIsNeverAnswered|TestOneWay|TestWireArgs|TestUnlockFallsBack' \
			./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/
		$GO test -race -run 'TestAASCLinearizableUnlockInFlight' ./internal/cluster/
		$GO test -run 'TestCallWireAllocs|TestLockUnlockAllocs' ./internal/rpc/ ./internal/dlm/
		$GO test -run NONE -bench 'CallWire|CallOrdered|CallJSON|LockUnlock|Append1$|ReadBatch' -benchmem -cpu 1,2 \
			./internal/rpc/ ./internal/dlm/ ./internal/sharedlog/
		;;

	# The controlet's one write pipeline: a Put and an MPut must mean the
	# same thing in every mode (replica state, migration mirror, failure
	# classes), every chain hop stamps its own epoch, no pooled request
	# aliases a connection's Pairs — then one pass of the dispatch layer
	# benchmark so it keeps compiling and its alloc columns stay in view.
	# Last, the write hop's allocation ceiling: a 3-replica put at the
	# MS+SC head (two chained peer frames) and at the AA+SC slot owner (two
	# write-all frames), sent and collected on the caller's goroutine.
	writepath)
		$GO test -race -run 'TestWritePath|TestChainForward|TestWriteToUnknownTable|TestPutCopy' ./internal/controlet/
		$GO test -run NONE -bench Dispatch -benchtime 1x -benchmem ./internal/controlet/
		out=$($GO test -run NONE -bench 'Dispatch/(ms|aa)\+strong/put-r3' -benchtime 20000x -benchmem ./internal/controlet/)
		echo "$out"
		echo "$out" | awk '/ms\+strong\/put-r3/ && $(NF-1) > 6 { bad = 1 }
			/aa\+strong\/put-r3/ && $(NF-1) > 7 { bad = 1 }
			/put-r3/ { n++ }
			END { if (bad || n != 2) { print "check.sh: the write hop allocates more than 6 (MS+SC) / 7 (AA+SC) per 3-replica put"; exit 1 } }'
		;;

	# The AA+EC log path, where everything is a frame: the append combiner
	# (contiguous offsets under 32 appenders, a failed Append fails exactly
	# its frame, a stream change neither merges nor reorders, stop releases
	# every waiter), framed apply against the entry-by-entry oracle, the
	# retried frame, catch-up when every replica is behind (on each of the
	# four engines), no cursor offered by a replica still backfilling its
	# own gap; the bounded log
	# (retention window, ReadReply.Oldest, identical trimming on a replicated
	# group and after restore, wire fuzz seeds); the cluster suites that
	# cross the window — a partitioned replica whose gap holds deletions (on
	# each of the four engines), a standby promotion
	# and a trimmed floor record — with the AA+EC suites that must not notice; all
	# under the race detector. Then the lone-append allocation ceiling (not
	# under -race, where sync.Pool sheds) and one pass of the two layer
	# benchmarks.
	aaec)
		$GO test -race -run 'TestFramedApply|TestFailedFrame|TestAllReplicasBehind|TestCatchingUp|TestCombiner|TestLogRecord' ./internal/controlet/
		$GO test -race -run 'TestRetentionWindow|TestReplicatedRetention|TestArenaSegments|Fuzz' ./internal/sharedlog/
		$GO test -race -run 'TestAAECPartitionedReplicaRebootstraps|TestFailoverStandbyRecoveryAAEC|TestJoinNodeAAEC|TestNemesisChaosAAEC|TestAAECConcurrentWritersConverge|TestAAECShardsStayIsolated|TestTransitionAAECToMSEC' ./internal/cluster/
		$GO test -run TestLoneAppendAllocs ./internal/controlet/
		$GO test -run NONE -bench 'LogApply|LogAppend' -benchtime 20000x -benchmem -cpu 1,2 ./internal/controlet/
		;;

	# AA+SC with the map as the only authority over a slot: the slot/owner
	# function and the per-mode route row every client pick reads (a routed
	# MS+SC GET's pick allocates nothing), the one rule resolving a read's
	# level, an owner's reads and writes of one key taking turns (a read
	# waits out the key's write-all in flight), write-all frames carrying
	# the owner's epoch and fence instant (a fenced owner serves nothing), a
	# peer refusing a frame from before its slot moved, a gained slot
	# unarmed until its live previous owner quiesces, a write-all re-sent
	# above a peer's newer version, and the cluster suites — linearizable
	# under isolate/split/one-way faults plus an owner crash, a write-all
	# held past the owner's fence and a control-leader kill, acked writes
	# readable under chaos, a dead owner's slot taken over within
	# HeartbeatTimeout + FenceTimeout, disagreeing maps never serving as a
	# non-owner, writes kept through two transitions, one hot key hammered
	# through all three controlets — under the race detector. Then the
	# greps that keep it so: the client routes by the route row, not by the
	# mode; nothing outside internal/dlm calls the DLM's Lock, and neither
	# the controlet nor a command imports the DLM; the slot-lease table's
	# options, counters and lease keeping stay gone. Last, the DLM Lock
	# calls per client op on a uniform 50 % PUT load (gate: none).
	aasc)
		$GO test -race -run 'TestSlot|TestRoute|TestPick|TestReadTarget' ./internal/topology/
		$GO test -race -run 'TestLevelStrong' ./internal/wire/
		$GO test -race -run 'TestAASC|TestKeyUse' ./internal/controlet/
		$GO test -race -run 'TestSlotOwnerRouting|TestReadTarget|TestWriteTarget' ./internal/client/
		$GO test -race -run 'TestAASC|TestNemesisLinearizableAASC|TestNemesisChaosAASC|TestTransitionPreservesData' ./internal/cluster/
		if grep -rnE --include='*.go' '\.Mode\.(Topology|Consistency)' internal/client/ | grep -v '_test\.go:'; then
			echo "check.sh: the client branches on the mode; read its topology.Route row" >&2
			exit 1
		fi
		if grep -rnE --include='*.go' 'LockTraced\(|\.Lock\([^)]*dlm\.(Read|Write)' cmd/ examples/ internal/ |
			grep -v '_test\.go:' | grep -v '^internal/dlm/'; then
			echo "check.sh: a DLM Lock outside internal/dlm; the map is AA+SC's authority" >&2
			exit 1
		fi
		if grep -rln --include='*.go' '"bespokv/internal/dlm"' internal/controlet/ cmd/; then
			echo "check.sh: the controlet or a command imports the DLM" >&2
			exit 1
		fi
		if grep -rnE --include='*.go' 'LockTTL|DLMAddr|ctlSlotAcquire|ctlSlotRenew|ctlSlotRelease|ctlSlotFallback|func \(l \*lockClient\) (tend|renew|release)' internal/ cmd/; then
			echo "check.sh: the AA+SC slot-lease table is back" >&2
			exit 1
		fi
		log=$(mktemp)
		$GO test -count=1 -v -run 'TestAASCSteadyStateLockRatio' ./internal/cluster/ >"$log" || { cat "$log"; rm -f "$log"; exit 1; }
		grep 'Lock calls per client op' "$log"
		rm -f "$log"
		;;

	# The byte-stream layer and the one way to serve a hop on top of it: the
	# conformance set over tcp, unix and inproc (stale socket file replaced,
	# unlinked on Close, over-long path refused); transport.Server, the
	# accept/track/drain owner under all six servers (Close racing an accept
	# storm, two listeners and one Close, Close twice, a serve func blocked in
	# Read, accept errors retried with the capped backoff); each server's
	# wiring of it — the accept loop outlives EMFILE and counts it — in the
	# datalet, the controlet, rpc.Server and, one table, the three baselines,
	# whose proxies also answer a pipelined burst in fewer writes than it has
	# requests; a datalet serving its TCP address and its socket file at once;
	# the tcp cluster layout with the local hop on a socket file, through a
	# crash and restart on the same path — under the race detector. Then the
	# greps that keep it one way: nobody outside transport calls Accept or
	# keeps a connection set, no baseline wraps a connection in bufio buffers
	# of its own (wire.ServeConn does), and neither hop grows a second
	# admission prologue beside overload.Admission.Admit. Then the allocation
	# gates (not under -race, where sync.Pool sheds): a routed GET's server
	# side over inproc, tcp and tcp+unix, one 73-byte round trip per network
	# with its numbers, and what the prologue costs an admitted op.
	transport)
		$GO test -race ./internal/transport/...
		$GO test -race -run 'TestAcceptLoopOutlives|TestLocalListener|TestDataletAddrUnixForm|TestPipelinedBurst' \
			./internal/datalet/ ./internal/controlet/ ./internal/rpc/ ./internal/baseline/
		$GO test -race -run 'TestClusterOverTCP|TestClusterCollocatedDatalets|TestCrashRestartOverTCP' ./internal/cluster/
		if grep -rn --include='*.go' '\.Accept()' cmd/ examples/ internal/ |
			grep -v '_test\.go:' | grep -vE '^internal/(transport|faultnet)/'; then
			echo "check.sh: an accept loop outside internal/transport; serve the listener with transport.Server" >&2
			exit 1
		fi
		if grep -rnF --include='*.go' 'map[transport.Conn]struct{}' cmd/ examples/ internal/; then
			echo "check.sh: a connection set outside internal/transport; transport.Server tracks them" >&2
			exit 1
		fi
		if grep -rnE --include='*.go' 'bufio\.New(Reader|Writer)(Size)?\(conn' internal/baseline/ | grep -v '_test\.go:'; then
			echo "check.sh: a baseline has a frame loop of its own; serve with wire.ServeConn" >&2
			exit 1
		fi
		if grep -rnE --include='*.go' 'overload\.LaneOf\(|\.DeadlineExpired\(' internal/controlet/ internal/datalet/ |
			grep -v '_test\.go:'; then
			echo "check.sh: a second hop prologue; admit through overload.Admission.Admit" >&2
			exit 1
		fi
		$GO test -run TestRoutedGetZeroAllocs ./internal/controlet/
		$GO test -run NONE -bench RoundTrip -benchmem -cpu 1,2 ./internal/transport/
		$GO test -run NONE -bench 'Dispatch/ms\+strong/get|GateAdmit' -benchmem ./internal/controlet/ ./internal/overload/
		;;

	# The configuration surface: every field of cluster.Options,
	# controlet.Config, client.Config, datalet.Config and
	# coordinator.Config is assigned — a literal key, an assignment or
	# increment, its address taken — somewhere outside its defining file,
	# and the five hold at most 80 fields. A field nothing sets is a value
	# the code already knows: derive it. Tests and the benchmark count as
	# setters. The search is by name, in the files that name the struct
	# (pkg.Type anywhere, Type inside its own package).
	options) (
			set +x # one grep per field
			total=0 bad=0
			for spec in cluster:Options controlet:Config client:Config datalet:Config coordinator:Config; do
				pkg=${spec%:*} typ=${spec#*:}
				def=$(grep -l "^type $typ struct {" internal/$pkg/*.go)
				fields=$(awk -v t="$typ" '$0 ~ "^type " t " struct \\{" { on = 1; next }
					on && /^}/ { exit }
					on && /^\t[A-Z][A-Za-z0-9]* / { print $1 }' "$def")
				users=$({ grep -rlw --include='*.go' "$pkg\.$typ" bench_test.go benchmark cmd examples internal
					grep -lw "$typ" internal/$pkg/*.go; } | sort -u | grep -vx "$def" || true)
				for f in $fields; do
					total=$((total + 1))
					if [ -z "$users" ] || ! grep -qE "(^|[^A-Za-z0-9_.])$f:|\.$f[[:space:]]*([-+*/%&|^]?=[^=]|<<=|>>=|\+\+|--)|&[A-Za-z_][A-Za-z0-9_.]*\.$f([^A-Za-z0-9_]|\$)" $users; then
						echo "check.sh: $pkg.$typ.$f is assigned nowhere outside $def" >&2
						bad=1
					fi
				done
			done
			echo "check.sh: $total fields in the five config structs (at most 80)"
			[ "$bad" = 0 ] && [ "$total" -le 80 ] || exit 1
		) ;;

	# The repository benchmark (benchmark/, a nested module outside ./...)
	# at -quick sizes, ~5 s: all six workloads end to end with the output
	# check, and the traced layer ladder — whose dlm.Client.Lock and
	# sharedlog.Client.Append rungs are what an rpc change breaks first.
	bench-smoke) $GO -C benchmark test ./... ;;

	*)
		echo "check.sh: unknown gate '$1' (have: check $ALL)" >&2
		exit 2
		;;
	esac
}

[ $# -gt 0 ] || set -- check
set -x
for target; do
	run "$target"
done
