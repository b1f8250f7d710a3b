#!/usr/bin/env bash
# Run workloads over several seeds, appending every run's ledger records to
# one JSON-lines file, e.g. the ten-seed sets under bench/perf/runs/:
#
#   bash bench/perf/sweep.sh bench/perf/runs/set-a.jsonl "1 2 3 4 5 6 7 8 9 10"
#   bash bench/perf/sweep.sh out.jsonl "1 2" serve-hot-snb plan-snb
#
# Workloads default to all four; --seconds comes from BENCHMARK.json's
# run_seconds unless SECONDS_PER_RUN is set. Judge a set with
# _build/default/bench/perf/compare.exe (see README.md).
set -euo pipefail
cd "$(dirname "$0")/../.."
out=$1
seeds=$2
shift 2
workloads=${*:-serve-hot-snb serve-cold-dbpedia plan-snb build-large-snb}
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
for seed in $seeds; do
  for w in $workloads; do
    line=$(bash bench/perf/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 --out "$out" | tail -n 1)
    echo "$w seed $seed: $line"
  done
done
