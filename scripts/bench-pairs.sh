#!/usr/bin/env bash
# Alternating parent/change pairs of one campaign-benchmark workload: the
# protocol a gain-claiming change has to report (bench/README.md).
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [seed=1]
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=sweep-emu
#
# The parent's committed files are exported into .bench_build/parent (git
# archive: no worktree is registered, and <parent-ref> may be the branch
# that is checked out); the change is this working tree. Each pair runs
# `bench/run.sh --workload W --seed S --trace 0` once per side at the
# benchmark's own run length, and the side that goes first switches every
# pair. Prints every run, each side's median and quartiles for the four
# end-to-end metrics, the pairs the change won, a verdict per metric, the
# failed operations and each side's sim_digest (one value per side when
# every run simulated the same thing; equal across sides when the change
# moved no simulated output). The verdict is "gain" when the change is ahead
# in at least nine tenths of the pairs (ties count for neither side) and its
# median is better than the parent's by more than the parent's
# inter-quartile range, "worse" in the mirrored case, and "unresolved"
# otherwise. Exits 1 if any invocation reported failed != 0 or an incorrect
# result; the verdicts do not change the exit status.
set -euo pipefail

parent_ref=${1:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seed]}
workload=${2:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seed]}
pairs=${3:-10}
seed=${4:-1}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
parent="$root/.bench_build/parent"
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"

results=$(mktemp -d "$root/.bench_build/pairs.XXXXXX")
trap 'rm -rf "$results"' EXIT

# The benchmark's last output line is its one JSON result; the digest of
# what it simulated is a "# sim_digest" comment line before it.
run() { # side tree
	local out
	out=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0)
	tail -n 1 <<<"$out" >>"$results/$1"
	sed -n 's/^# sim_digest //p' <<<"$out" >>"$results/$1.digest"
}

echo "# $workload, seed $seed: parent $(git -C "$root" rev-parse --short "$parent_ref") against the working tree, $pairs pairs"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent"
		run change "$root"
	else
		run change "$root"
		run parent "$parent"
	fi
	echo "# pair $i of $pairs done"
done

awk -v pairs="$pairs" '
function field(line, key,    m) {
	# "key":{"value":N  or  "key":N
	if (match(line, "\"" key "\":(\\{\"value\":)?[-+0-9.eE]+")) {
		m = substr(line, RSTART, RLENGTH)
		sub(/^.*:/, "", m)
		return m + 0
	}
	return "nan"
}
# quantile q of v[1..n] (sorted in place), linear interpolation.
function quantile(v, n, q,    i, j, t, h, lo) {
	for (i = 2; i <= n; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
	h = 1 + (n - 1) * q
	lo = int(h)
	if (lo >= n) return v[n]
	return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
BEGIN {
	nm = split("runs_per_s run_ms_p50 run_ms_p95 setup_s", metric, " ")
	higher["runs_per_s"] = 1
}
{
	side = FILENAME
	sub(/^.*\//, "", side)
	n[side]++
	for (k = 1; k <= nm; k++) val[side, metric[k], n[side]] = field($0, metric[k])
	failed[side] += field($0, "failed")
	if ($0 !~ /"correct":true/) incorrect[side]++
}
END {
	bad = 0
	for (k = 1; k <= nm; k++) {
		m = metric[k]
		won = lost = 0
		printf "\n%s\n", m
		for (s = 1; s <= 2; s++) {
			side = s == 1 ? "parent" : "change"
			printf "  %-6s", side
			for (i = 1; i <= n[side]; i++) {
				printf " %.4g", val[side, m, i]
				tmp[i] = val[side, m, i]
			}
			q1 = quantile(tmp, n[side], 0.25)
			q2 = quantile(tmp, n[side], 0.5)
			q3 = quantile(tmp, n[side], 0.75)
			printf "\n         median %.4g, quartiles %.4g – %.4g\n", q2, q1, q3
			if (side == "parent") {
				iqr = q3 - q1
				parent_median = q2
			}
		}
		for (i = 1; i <= pairs; i++) {
			p = val["parent", m, i]
			c = val["change", m, i]
			if ((m in higher) ? c > p : c < p) won++
			else if (c != p) lost++
		}
		printf "  change ahead in %d of %d pairs, behind in %d\n", won, pairs, lost
		# gap > 0: the median of the change is the better one.
		gap = (m in higher) ? q2 - parent_median : parent_median - q2
		verdict = "unresolved"
		if (10 * won >= 9 * pairs && gap > iqr) verdict = "gain"
		else if (10 * lost >= 9 * pairs && -gap > iqr) verdict = "worse"
		printf "  verdict: %s (medians %.4g -> %.4g, parent IQR %.4g)\n", verdict, parent_median, q2, iqr
	}
	for (s = 1; s <= 2; s++) {
		side = s == 1 ? "parent" : "change"
		printf "\n%s: failed %d, incorrect results %d, in %d invocations", side, failed[side], incorrect[side], n[side]
		if (failed[side] + incorrect[side] > 0 || n[side] != pairs) bad = 1
	}
	printf "\n"
	exit bad
}' "$results/parent" "$results/change" || status=$?
for side in parent change; do
	echo "$side sim_digest: $(sort -u "$results/$side.digest" | tr '\n' ' ')"
done
exit "${status:-0}"
