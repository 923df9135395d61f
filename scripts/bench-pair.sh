#!/usr/bin/env bash
# bench-pair.sh (make bench-check) — judge this tree's host time against
# its base's with the end-to-end benchmark (benchmark/), on one machine. The
# base is the merge base with origin/main, or HEAD~1 when HEAD is on main,
# checked out in a temporary git worktree that is removed on exit. Each
# workload runs three pairs of a base run and a head run, which side goes
# first alternating: `benchmark/run.sh --workload W --seed 1 --seconds 5`,
# each in its own tree. This tree's `benchmark/run.sh -compare` judges
# every pair by its IQR verdict and BENCHMARK.json's bounds and prints the
# table. A workload fails when all three of its pairs fail: on unchanged
# code one pair's setup_s (three set-ups a run) moves by up to 46 %
# between processes. Exit 1 when any workload fails.
set -u
head=$(cd "$(dirname "$0")/.." && pwd)
cd "$head" || exit 2
base=$(git merge-base HEAD origin/main 2> /dev/null)
if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then base=$(git rev-parse HEAD~1) || exit 2; fi
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'git worktree remove --force "$work/base"; rm -rf "$work"' EXIT
git worktree add -q --detach "$work/base" "$base" || exit 2
echo "base $(git rev-parse --short "$base"), head $(git rev-parse --short HEAD)"
failed= order="base head"
for w in nas_disk nas_fasttier compile_cold tenant_mix; do
	passed=0
	for pair in 1 2 3; do
		for side in $order; do
			tree=$head && [ $side = base ] && tree=$work/base
			bash "$tree/benchmark/run.sh" --workload $w --seed 1 --seconds 5 -out "$work/$side-$w-$pair.json" > "$work/$side.log" 2>&1 ||
				{ echo "$side $w: run failed; the end of its log:"; tail -5 "$work/$side.log"; }
		done
		echo "$w, pair $pair ($order):"
		bash benchmark/run.sh -compare "$work/base-$w-$pair.json" "$work/head-$w-$pair.json" && passed=$((passed + 1))
		[ "$order" = "base head" ] && order="head base" || order="base head"
	done
	[ $passed = 0 ] && failed="$failed $w"
done
echo "bench-pair: workloads that failed all three pairs:${failed:- none}"
[ -z "$failed" ]
