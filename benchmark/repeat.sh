#!/usr/bin/env bash
# Runs the whole untraced suite as two sets and checks that they agree within
# the bounds in BENCHMARK.json; writes benchmark/out/repeat.json.
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -repeat 2 "$@"
