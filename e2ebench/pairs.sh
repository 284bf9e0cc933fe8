#!/usr/bin/env bash
# Measures a change against its parent commit: runs the untraced benchmark on
# both checkouts in alternating pairs (odd pairs parent first, even pairs
# change first), one seed per pair, then prints compare mode's verdicts.
#
#   bash e2ebench/pairs.sh <parent-checkout> <change-checkout> <pairs> [workload...]
#
# Both checkouts must carry the same e2ebench sources. Results go to
# <change-checkout>/.bench_build/compare/{parent,change}.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-checkout> <change-checkout> <pairs> [workload...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=$3
shift 3
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(m2000-cg small-routed stream-refresh)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")
out=$change/.bench_build/compare
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

run() { # checkout side workload seed
	(cd "$1" && bash e2ebench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --out "$out/$2" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
	for w in "${workloads[@]}"; do
		if [ $((i % 2)) -eq 1 ]; then
			run "$parent" parent "$w" "$i"
			run "$change" change "$w" "$i"
		else
			run "$change" change "$w" "$i"
			run "$parent" parent "$w" "$i"
		fi
	done
done
cd "$change" && bash e2ebench/run.sh compare --bench BENCHMARK.json "$out/parent" "$out/change"
