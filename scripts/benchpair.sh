#!/usr/bin/env bash
# Pairs the repository benchmark of two commits. For every workload and
# every pair i it runs
#
#   bash benchmark/run.sh --workload W --seed i --seconds 12 --trace 0
#
# once in a clean checkout of each side, alternating which side goes first,
# and writes one JSON report: both shas, nproc, and per workload (cell) and
# end-to-end metric the per-pair values, median, quartiles, wins and a
# verdict, plus each side's failed-op share and each run's CPU steal share.
#
#   scripts/benchpair.sh --against <ref> --pairs N [--workload W[,W...]]
#                        [--head <ref>] [--out FILE]
#
# --head defaults to HEAD, --workload to every workload BENCHMARK.json
# names, --out to BENCH.json. Each side is built from its committed files
# (git archive into a temporary directory), so commit before pairing.
#
# The verdict is two-sided. A cell is "unresolved" when either side's
# quartile spread exceeds the metric's bound in BENCHMARK.json (the runs
# cannot tell a change of that size from noise); "moved" (better or worse)
# when one side wins at least nine pairs in ten and the medians differ by
# more than the spread of the --against side's quartiles; "unchanged"
# otherwise. A pair in which both sides lie more than 3x off their own
# median is disturbed: it is dropped from the cell and listed.
#
# A run that exits non-zero or prints no result line is listed under
# "failed_runs" with the tail of its stderr and run again with the same
# seed; a run that fails three times stops the pairing.
set -euo pipefail

usage() {
	sed -n '12,13p' "$0" >&2
	exit 2
}

against= head=HEAD pairs= workloads= out=BENCH.json
while [ $# -gt 0 ]; do
	case "$1" in
	--against) against=$2; shift 2 ;;
	--head) head=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--workload) workloads=$2; shift 2 ;;
	--out) out=$2; shift 2 ;;
	*) usage ;;
	esac
done
[ -n "$against" ] && [ -n "$pairs" ] || usage

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$against^{commit}")
head_sha=$(git -C "$root" rev-parse --verify "$head^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in base head; do
	sha=$base_sha
	[ "$side" = head ] && sha=$head_sha
	mkdir -p "$work/$side"
	git -C "$root" archive "$sha" | tar -x -C "$work/$side"
done
if [ -z "$workloads" ]; then
	workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$work/head/BENCHMARK.json")
fi

# steal prints the host's cumulative CPU steal and total jiffies.
steal() { awk '/^cpu /{t=0; for(i=2;i<=NF;i++) t+=$i; print $9, t; exit}' /proc/stat; }

runs=$work/runs.jsonl fails=$work/fails.jsonl
: >"$runs"
: >"$fails"
for w in ${workloads//,/ }; do
	for i in $(seq 1 "$pairs"); do
		order="base head"
		[ $((i % 2)) -eq 0 ] && order="head base"
		for side in $order; do
			for attempt in 1 2 3; do
				before=$(steal)
				status=0
				line=$(bash "$work/$side/benchmark/run.sh" --workload "$w" --seed "$i" --seconds 12 --trace 0 \
					--out "$work/out-$side" 2>"$work/err" | tail -n 1) || status=$?
				after=$(steal)
				case $status$line in 0{*) break ;; esac
				tail -n 20 "$work/err" >&2
				echo "benchpair: $side run of $w seed $i failed (exit $status, attempt $attempt)" >&2
				printf '{"workload":"%s","pair":%d,"side":"%s","attempt":%d,"exit":%d,"stderr_tail":%s}\n' \
					"$w" "$i" "$side" "$attempt" "$status" \
					"$(tail -n 5 "$work/err" | python3 -c 'import json,sys; print(json.dumps(sys.stdin.read()))')" >>"$fails"
				[ "$attempt" -lt 3 ] || exit 1
			done
			echo "benchpair: $w pair $i $side: $line" >&2
			printf '{"workload":"%s","pair":%d,"side":"%s","steal":[%s],"result":%s}\n' \
				"$w" "$i" "$side" "${before/ /,},${after/ /,}" "$line" >>"$runs"
		done
	done
done

python3 - "$runs" "$fails" "$work/head/BENCHMARK.json" "$base_sha" "$head_sha" "$pairs" "$out" <<'EOF'
import json, os, statistics, sys

runs_path, fails_path, contract_path, base_sha, head_sha, pairs, out = sys.argv[1:]
contract = json.load(open(contract_path))
runs = [json.loads(l) for l in open(runs_path)]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def steal_share(r):
    s0, t0, s1, t1 = r["steal"]
    return (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0

report = {"against": base_sha, "head": head_sha, "nproc": os.cpu_count(),
          "pairs": int(pairs), "command": "bash benchmark/run.sh --workload W --seed i --seconds 12 --trace 0",
          "failed_runs": [json.loads(l) for l in open(fails_path)], "cells": {}}
for w in dict.fromkeys(r["workload"] for r in runs):
    by = {(r["pair"], r["side"]): r for r in runs if r["workload"] == w}
    ids = sorted({p for p, _ in by})
    cell = {"steal_share": {s: [round(steal_share(by[p, s]), 4) for p in ids] for s in ("base", "head")},
            "failed_share": {}, "metrics": {}}
    for s in ("base", "head"):
        att = sum(by[p, s]["result"]["attempted"] for p in ids)
        cell["failed_share"][s] = sum(by[p, s]["result"]["failed"] for p in ids) / att if att else 0.0
    for m in contract["end_to_end"]:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        vals = {s: [by[p, s]["result"]["metrics"][name]["value"] for p in ids] for s in ("base", "head")}
        med0 = {s: statistics.median(vals[s]) for s in vals}
        off = lambda v, med: med > 0 and (v > 3 * med or v < med / 3)
        disturbed = [p for k, p in enumerate(ids) if all(off(vals[s][k], med0[s]) for s in vals)]
        keep = [k for k, p in enumerate(ids) if p not in disturbed]
        v = {s: [vals[s][k] for k in keep] for s in vals}
        stats = {}
        for s in v:
            q1, med, q3 = quartiles(v[s])
            stats[s] = {"values": v[s], "median": med, "q1": q1, "q3": q3}
        wins = sum((h > b) if higher else (h < b) for b, h in zip(v["base"], v["head"]))
        losses = sum((h < b) if higher else (h > b) for b, h in zip(v["base"], v["head"]))
        n = len(keep)
        spread = lambda st: (st["q3"] - st["q1"]) / st["median"] if st["median"] else 0.0
        gap = stats["head"]["median"] - stats["base"]["median"]
        if max(spread(stats["base"]), spread(stats["head"])) > bound:
            verdict = "unresolved"
        elif max(wins, losses) * 10 >= 9 * n and abs(gap) > stats["base"]["q3"] - stats["base"]["q1"]:
            verdict = "moved " + ("better" if wins > losses else "worse")
        else:
            verdict = "unchanged"
        cell["metrics"][name] = {
            "base": stats["base"], "head": stats["head"], "wins": wins, "losses": losses,
            "change": gap / stats["base"]["median"] if stats["base"]["median"] else 0.0,
            "bound": bound, "verdict": verdict, "disturbed_pairs": disturbed,
        }
    report["cells"][w] = cell
with open(out, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
for w, cell in report["cells"].items():
    for name, m in cell["metrics"].items():
        print(f'{w:18s} {name:16s} base {m["base"]["median"]:10.3f} head {m["head"]["median"]:10.3f} '
              f'{m["change"]:+7.1%} wins {m["wins"]:2d}/{len(m["head"]["values"])} {m["verdict"]}')
    print(f'{w:18s} failed share     base {cell["failed_share"]["base"]:.2e} head {cell["failed_share"]["head"]:.2e}')
for f in report["failed_runs"]:
    print(f'failed run: {f["workload"]} pair {f["pair"]} {f["side"]} attempt {f["attempt"]} exit {f["exit"]}')
EOF
