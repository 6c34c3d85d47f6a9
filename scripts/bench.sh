#!/usr/bin/env bash
# bench.sh — record the hot-path benchmarks to a JSON artifact.
#
# Runs the end-to-end machine benchmark plus the issue-queue
# microbenchmarks with allocation reporting, 5 samples each, and stores
# both the raw `go test -bench` output and machine context. The artifact
# is a record, not a comparison: numbers from different hosts or sessions
# do not compare, so a speed claim is an interleaved A/B against the base
# commit with smtbench/ab.sh.
#
# Usage: scripts/bench.sh [output.json]
#   output.json   artifact path (default: $BENCH_OUT, then BENCH.json)
#   COUNT=N       samples per benchmark (default 5)
#   SKIP_LINT=1   skip the lint gate (throwaway local measurements only)
#
# Numbers are only worth recording from a tree that passes the
# repository's own analyzer suite — a hot-path regression smtlint would
# have flagged makes the artifact unrepresentative — so the script
# refuses to record unless `make lint` is clean.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-${BENCH_OUT:-BENCH.json}}"
COUNT="${COUNT:-5}"

if [[ "${SKIP_LINT:-0}" != 1 ]]; then
    if ! make lint >/dev/null 2>&1; then
        echo "bench.sh: refusing to record benchmarks: 'make lint' fails." >&2
        echo "bench.sh: fix the lint findings, or rerun with SKIP_LINT=1 for a throwaway measurement." >&2
        exit 1
    fi
fi

RAW="$(go test -run xxx -bench 'Table1Machine|IQ|SweepStore' -benchmem -count "$COUNT" ./... 2>&1 | grep -E '^(Benchmark|ok|PASS|goos|goarch|pkg|cpu)' || true)"

# Assemble a small JSON document: context + raw benchmark lines.
RAW="$RAW" OUT="$OUT" COUNT="$COUNT" python3 - <<'EOF'
import json, os, subprocess, sys

raw = os.environ["RAW"].rstrip("\n")
go_version = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
doc = {
    "benchmarks": "Table1Machine|IQ|SweepStore",
    "count": int(os.environ["COUNT"]),
    "go": go_version,
    # Seed-commit polling implementation, measured on the same machine
    # (Xeon @ 2.10GHz) before the event-driven wakeup landed — the
    # reference for the >=2x acceptance criterion.
    "seed_baseline": {
        "commit": "53b1c2d",
        "BenchmarkTable1Machine": {
            "cycles_per_s": 368174,
            "instrs_per_s": 353888,
            "B_per_op": 6354201,
            "allocs_per_op": 153554,
        },
        "BenchmarkStep_ns_per_op": {"traditional": 1789, "2op-block": 2046, "2op-ooo-dispatch": 2305},
        "BenchmarkStep_allocs_per_op": 6,
    },
    "lines": raw.split("\n"),
}
with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {os.environ['OUT']}")
EOF
