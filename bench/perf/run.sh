#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: build lpp and the benchmark from
# this checkout, then run one workload. Arguments go to main.exe:
#
#   bash bench/perf/run.sh --workload serve-hot-snb --seed 1 --seconds 8 --trace 0
#
# Writes only under the checkout's _build/: dune's build (shared cache off)
# and _build/perf-out/ (sockets, server logs, Chrome traces).
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not an lpp source tree (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./bin/lpp.exe ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe --lpp ./_build/default/bin/lpp.exe "$@"
