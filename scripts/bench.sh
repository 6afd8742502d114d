#!/usr/bin/env bash
# bench.sh — benchmark regression harness (see docs/perf.md).
#
# Full mode (the default) runs every benchmark with fixed -benchtime/-count
# and records the folded results into BENCH_18.json via cmd/benchgate:
#
#   ./scripts/bench.sh                 # re-record the "current" block
#   ./scripts/bench.sh --baseline pre.txt   # also record pre.txt as baseline
#
# Smoke mode runs a fast subset (skipping the multi-second campaign
# benchmarks) and gates it against the committed BENCH_18.json. Time gates
# are loose (tolerance factor, absorbs CI machine variance); allocs/op
# gates are exact, because allocation counts are deterministic:
#
#   ./scripts/bench.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-200ms}"
COUNT="${COUNT:-3}"
TOLERANCE="${TOLERANCE:-2.5}"
OUT="${OUT:-BENCH_18.json}"

# Fast subset for CI smoke: steady-state kernels and harness overhead, no
# full-campaign benchmarks (those take tens of seconds per iteration).
SMOKE_PATTERN='^(BenchmarkEnvEpisode|BenchmarkNNForwardBackward|BenchmarkStudyOverhead|BenchmarkReportTable|BenchmarkFigure4|BenchmarkRank2000|BenchmarkRank2000x3|BenchmarkFront2200|BenchmarkJournalRecover2000|BenchmarkEvaluateRequest|BenchmarkLocalStudy300|BenchmarkDispatch|BenchmarkServeFrontDone2000|BenchmarkRestartToDone2200|BenchmarkOpenStore)$'

# BenchmarkRouterList2000 is in the smoke subset too, at a fixed iteration
# count: a run of it carries about 40 allocations that do not scale with
# b.N (allocs/op reads 187 + 40/N), and at the ten iterations 50 ms buys
# that is 191-194 against a 2%+1 gate of 192.8 on the recorded 188.
SMOKE_FIXED_PATTERN='^BenchmarkRouterList2000$'

if [ "${1:-}" = "--smoke" ]; then
  tmp="$(mktemp)"
  trap 'rm -f "$tmp"' EXIT
  go test -run '^$' -bench "$SMOKE_PATTERN" -benchmem \
    -benchtime "${SMOKE_BENCHTIME:-50ms}" -count 1 . | tee "$tmp"
  go test -run '^$' -bench "$SMOKE_FIXED_PATTERN" -benchmem \
    -benchtime 50x -count 1 . | tee -a "$tmp"
  # The allocs ceilings are absolute contracts, not relative gates: the
  # 50-trial study harness, the 2000-trial rank of two and of three
  # objectives, the front of a done 2200-trial study, one evaluation of a
  # prepared spec, one fleet dispatch round trip, one repeat /front of a
  # done 2000-trial study, the recovery of a 2000-record journal and the
  # reopening of a 500-study state directory must stay within their
  # allocation budgets even if the golden record is re-ratcheted. The last
  # is 66 k; a directory listing per study would put it past 800 k.
  go run ./cmd/benchgate check -golden "$OUT" -tolerance "$TOLERANCE" \
    -max-allocs "${MAX_ALLOCS:-BenchmarkStudyOverhead=64,BenchmarkRank2000=8,BenchmarkRank2000x3=8,BenchmarkFront2200=8,BenchmarkEvaluateRequest=8,BenchmarkDispatch=119,BenchmarkServeFrontDone2000=8,BenchmarkJournalRecover2000=2200,BenchmarkOpenStore=70000}" < "$tmp"
  exit 0
fi

BASELINE_ARGS=()
if [ "${1:-}" = "--baseline" ]; then
  BASELINE_ARGS=(-baseline "$2")
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$tmp"
# The two training benchmarks again at one and at two Ps, recorded as
# <name>/cpu=N rows (benchgate strips go test's own -N suffix). One go test
# per width: with a -cpu list, the first sample of the first width is taken
# at the last width's GOMAXPROCS.
for procs in 1 2; do
  go test -run '^$' -bench '^(BenchmarkTableI|BenchmarkNNForwardBackward)$' -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$procs" . |
    sed -E "s|^(Benchmark[A-Za-z]+)(-[0-9]+)?([[:space:]])|\\1/cpu=$procs\\3|" | tee -a "$tmp"
done
go run ./cmd/benchgate record -out "$OUT" "${BASELINE_ARGS[@]}" \
  -note "go test -bench . -benchmem -benchtime $BENCHTIME -count $COUNT; ns/op folded by min, allocs/op by max" < "$tmp"
