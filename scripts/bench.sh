#!/bin/sh
# bench.sh — run the repo's benchmark job and snapshot it as BENCH_PR<N>.json,
# the perf trajectory this repo tracks PR over PR.
#
#   scripts/bench.sh 3                 # writes BENCH_PR3.json
#   scripts/bench.sh 3 -benchtime 50x  # extra args forwarded to go test
#
# Compare two snapshots with:
#
#   go run ./cmd/benchjson -diff BENCH_PR2.json BENCH_PR3.json
set -eu

if [ $# -lt 1 ]; then
    echo "usage: scripts/bench.sh <pr-number> [go test args...]" >&2
    exit 2
fi
PR="$1"
shift

cd "$(dirname "$0")/.."

# The scale gate runs separately at one iteration: a single pass is already
# a full million-request simulated day, so the suite's benchtime would turn
# it into minutes of identical repeats. Both outputs feed one snapshot.
{
    go test -run '^$' \
        -bench 'BenchmarkCapacitySweep|BenchmarkScenarios|BenchmarkServingIteration|BenchmarkKVBlockStore|BenchmarkResilience|BenchmarkTieredMacroStep' \
        -benchmem -benchtime "${BENCHTIME:-50x}" "$@" .
    go test -run '^$' -bench 'BenchmarkMillionRequest' -benchmem -benchtime 1x "$@" .
    # Layer benchmarks live in their own packages. One pass of the
    # 60k-request admission stream takes about a second, hence the low count.
    go test -run '^$' -bench 'BenchmarkStreamAdmission' -benchmem -benchtime 3x "$@" ./internal/serving
} \
    | tee /dev/stderr \
    | go run ./cmd/benchjson > "BENCH_PR${PR}.json"

echo "wrote BENCH_PR${PR}.json" >&2
