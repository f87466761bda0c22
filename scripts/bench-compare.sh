#!/usr/bin/env bash
# Compares the benchmark of record (bench/, bounded by BENCHMARK.json)
# between a base commit and the working tree, and fails on a regression.
# Run it from the repository root:
#
#   bash scripts/bench-compare.sh <base commit>     # or: make bench-compare BASE=<commit>
#
# The base commit is exported with git archive into a temporary directory,
# and the working tree's bench/ and BENCHMARK.json are copied over it, so
# both sides run the same benchmark code against their own program. Every
# workload BENCHMARK.json lists then runs for its run_seconds in 3
# alternating pairs: pair i uses seed i, odd pairs run the base first and
# even pairs the change first. Each run's output is kept under
# .bench_compare/base/ and .bench_compare/change/, and the table of
# `bench/run.sh --compare` in .bench_compare/compare.txt.
#
# Exits non-zero if a verdict reads regressed, a change-side run reports
# "correct": false, or the change side failed more operations than the base.
set -euo pipefail

base=${1:?usage: bash scripts/bench-compare.sh <base commit>}
pairs=3

root=$(pwd)
out="$root/.bench_compare"
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT

git archive "$base" | tar -x -C "$tree"
rm -rf "$tree/bench"
cp -R bench "$tree/bench"
cp BENCHMARK.json "$tree/BENCHMARK.json"
rm -rf "$out"
mkdir -p "$out/base" "$out/change"

seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
if [ -z "$seconds" ] || [ -z "$workloads" ]; then
	echo "bench-compare: no run_seconds or workloads in BENCHMARK.json" >&2
	exit 2
fi

# run <side> <tree> <workload> <seed>
run() {
	echo "bench-compare: pair $4, $3, $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$out/$1/$3-$4.txt"
}
for i in $(seq 1 "$pairs"); do
	for wl in $workloads; do
		if ((i % 2)); then
			run base "$tree" "$wl" "$i"
			run change "$root" "$wl" "$i"
		else
			run change "$root" "$wl" "$i"
			run base "$tree" "$wl" "$i"
		fi
	done
done

bash bench/run.sh --compare "$out/base" "$out/change" | tee "$out/compare.txt"

status=0
if awk '$NF == "regressed" { print "bench-compare: regressed: " $1 " " $2; n++ } END { exit n == 0 }' "$out/compare.txt" >&2; then
	status=1
fi
for f in "$out"/change/*.txt; do
	if tail -n 1 "$f" | grep -q '"correct":false'; then
		echo "bench-compare: $(basename "$f" .txt) reports \"correct\": false" >&2
		status=1
	fi
done
# failed <side>: the failed operations summed over the side's runs.
failed() {
	cat "$out/$1"/*.txt | sed -n 's/^{.*"failed":\([0-9]*\).*/\1/p' | awk '{ s += $1 } END { print s + 0 }'
}
if (($(failed change) > $(failed base))); then
	echo "bench-compare: the change failed $(failed change) operations, the base $(failed base)" >&2
	status=1
fi
exit $status
