#!/usr/bin/env bash
# Benchmark gate: runs the repository's benchmark (bench/run.sh, with
# the workloads and bounds of BENCHMARK.json) on a base commit and on
# the working tree, and fails when the change breaks a workload or
# makes an end-to-end metric regress beyond its bound.
#
#   scripts/bench_gate.sh [BASE [WORKLOAD...]]
#
# BASE (default HEAD, so locally the working tree is compared with the
# last commit) is checked out in a temporary git worktree. Each
# workload (default: all five) gets PAIRS alternating pairs of untraced
# runs at BENCHMARK.json's run length — odd pairs run the base first,
# even pairs the change — and then `bench/run.sh --compare` on their
# result lines. The gate exits non-zero as soon as a run exits non-zero
# (a report with the wrong bytes, a failed operation, or a harness
# error), and at the end when any verdict reads "regressed".
#
# Five pairs is the fewest at which an A/A run (the same commit on both
# sides) read "unchanged" on service-open latency, where two pairs read
# "regressed". One workload takes about four minutes on 2 vCPUs. Run
# via `make bench`; CI runs one job per workload.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=5
workloads=(design2sva agr nl2sva dist-http service-open)

base=${1:-HEAD}
if [ $# -gt 1 ]; then
  workloads=("${@:2}")
fi

tmp=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

# run SIDE DIR WORKLOAD: one untraced run in DIR; its result line (the
# last line it prints) is appended to $tmp/WORKLOAD.SIDE.
run() {
  local out
  if ! out=$(cd "$2" && bash bench/run.sh --workload "$3" --trace 0); then
    printf '%s\n' "$out" >&2
    echo "bench_gate: $3 run failed on the $1 side" >&2
    exit 1
  fi
  printf '%s\n' "$out" | tail -n 1 | tee -a "$tmp/$3.$1"
}

regressed=()
for w in "${workloads[@]}"; do
  for i in $(seq "$PAIRS"); do
    echo "== $w pair $i/$PAIRS"
    if [ $((i % 2)) -eq 1 ]; then
      run base "$tmp/base" "$w"
      run change . "$w"
    else
      run change . "$w"
      run base "$tmp/base" "$w"
    fi
  done
  echo "== $w: $base vs working tree"
  bash bench/run.sh --compare "$tmp/$w.base" "$tmp/$w.change" | tee "$tmp/$w.verdict"
  if grep -qw regressed "$tmp/$w.verdict"; then
    regressed+=("$w")
  fi
done

if [ ${#regressed[@]} -gt 0 ]; then
  echo "bench_gate: regressed on ${regressed[*]}" >&2
  exit 1
fi
echo "bench_gate: no regression on ${workloads[*]}"
