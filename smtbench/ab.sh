#!/usr/bin/env bash
# Interleaved A/B comparison of two commits on one workload:
#
#   bash smtbench/ab.sh <base-commit> [head-commit] [-- smtbench ab flags]
#   bash smtbench/ab.sh HEAD~1 HEAD -- --workload machine --pairs 10
#
# Run from the repository root. Both commits are checked out as git
# worktrees under .bench_build/ab and built with this checkout's
# smtbench directory copied in, so the two binaries differ only in the
# program code. The pairs then run alternately base-first and
# head-first; see "smtbench ab -h" for the flags and README.md for how
# to read the table. The worktrees are removed on exit.
set -euo pipefail

if [ $# -lt 1 ] || [ "$1" = "--" ]; then
	echo "usage: bash smtbench/ab.sh <base-commit> [head-commit] [-- ab flags]" >&2
	exit 2
fi
base_rev="$1"
shift
head_rev=HEAD
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
	head_rev="$1"
	shift
fi
[ "${1:-}" = "--" ] && shift

root="$(git rev-parse --show-toplevel)"
work="$root/.bench_build/ab"
mkdir -p "$work"
cleanup() {
	for side in base head; do
		if [ -d "$work/$side" ]; then
			git -C "$root" worktree remove --force "$work/$side" || true
		fi
	done
}
trap cleanup EXIT

bins=()
for side in base head; do
	rev="$base_rev"
	[ "$side" = head ] && rev="$head_rev"
	[ -d "$work/$side" ] && git -C "$root" worktree remove --force "$work/$side"
	git -C "$root" worktree add --detach "$work/$side" "$rev" >&2
	rm -rf "$work/$side/smtbench"
	cp -R "$root/smtbench" "$work/$side/smtbench"
	bin="$(cd "$work/$side" && CARGO_TARGET_DIR="$work/build-$side" bash smtbench/run.sh --build-only)"
	bins+=("$bin")
done

"${bins[1]}" ab --base "${bins[0]}" --head "${bins[1]}" \
	--spec "$root/BENCHMARK.json" --workdir "$work/runs" "$@"
