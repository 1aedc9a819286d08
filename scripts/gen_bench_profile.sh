#!/usr/bin/env bash
# Regenerates BENCH_profile.json: the checked-in per-phase wall-time
# breakdown of the §10.6 e2e workload (topk/wasp/900 ticks/live bandwidth,
# seed 7), plus the observability-overhead measurement that CI gates at <5%
# (best-of-5 ticks/s, --profile on vs off, both runs writing their trace to
# /dev/null so only the profiling differs).
#
# Usage: scripts/gen_bench_profile.sh [BUILD_DIR] [OUT_JSON]
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_profile.json}
SIM=$BUILD_DIR/examples/wasp_sim
TRACE=$BUILD_DIR/tools/wasp_trace

for bin in "$SIM" "$TRACE"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target wasp_sim wasp_trace)" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

COMMON=(--query=topk --mode=wasp --duration=900 --rate=10000 --seed=7
        --live-bandwidth)

# Per-phase breakdown: one profiled run, aggregated by `wasp_trace profile
# --json` from the trace's cumulative profile events.
"$SIM" "${COMMON[@]}" --profile --profile-every=60 \
  --trace-out="$tmp/trace.jsonl" --bench-out="$tmp/bench_profiled.json" \
  > /dev/null
"$TRACE" profile --json "$tmp/trace.jsonl" > "$tmp/phases.json"

# Overhead gate input: best-of-5 interleaved ticks/s with profiling on vs
# off. Both variants write their trace to /dev/null -- identical IO, so the
# delta is the profiler's clock reads plus profile-event emission. Five
# samples each because single-run throughput swings tens of percent on
# shared runners; the max of five is stable to a couple percent, which is
# the margin the <5% CI gate needs (true overhead is well under 1%).
# One untimed warmup so cold caches land on neither variant.
"$SIM" "${COMMON[@]}" --trace-out=/dev/null > /dev/null
for i in 1 2 3 4 5; do
  "$SIM" "${COMMON[@]}" --profile --profile-every=60 \
    --trace-out=/dev/null --bench-out="$tmp/on_$i.json" > /dev/null
  "$SIM" "${COMMON[@]}" \
    --trace-out=/dev/null --bench-out="$tmp/off_$i.json" > /dev/null
done

python3 - "$tmp" "$OUT" <<'EOF'
import json
import os
import sys

tmp, out_path = sys.argv[1], sys.argv[2]


def load(name):
    with open(os.path.join(tmp, name)) as f:
        return json.load(f)


profile = load("phases.json")
bench = load("bench_profiled.json")
runs = [{
    "ticks": bench["ticks"],
    "ticks_per_sec": bench["ticks_per_sec"],
    "coverage_pct": profile["coverage_pct"],
    "phases": profile["phases"],
}]

reps = (1, 2, 3, 4, 5)
on = max(load(f"on_{i}.json")["ticks_per_sec"] for i in reps)
off = max(load(f"off_{i}.json")["ticks_per_sec"] for i in reps)
overhead = [{
    "ticks_per_sec_profile_on": on,
    "ticks_per_sec_profile_off": off,
    "overhead_pct": round(100.0 * (1.0 - on / off), 3),
}]

doc = {
    "schema": "wasp-bench-profile-v1",
    "generated_by": "scripts/gen_bench_profile.sh",
    "workload": {
        "query": "topk",
        "mode": "wasp",
        "duration_sim_sec": 900,
        "rate_eps_per_site": 10000,
        "seed": 7,
        "live_bandwidth": True,
        "profile_every": 60,
    },
    "hardware_cores": os.cpu_count() or 1,
    "note": ("phase wall times are host-dependent; the stable signals are "
             "the relative per-phase split, coverage_pct (>=90 means the "
             "instrumented phases explain the tick), and overhead_pct "
             "(CI gates <5, best-of-5)"),
    "runs": runs,
    "overhead": overhead,
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

for o in overhead:
    print(f"profile on {o['ticks_per_sec_profile_on']:.0f} t/s vs off "
          f"{o['ticks_per_sec_profile_off']:.0f} t/s "
          f"({o['overhead_pct']:+.2f}% overhead)")
for r in runs:
    print(f"coverage {r['coverage_pct']:.1f}% over {r['ticks']} ticks")
print(f"wrote {out_path}")
EOF
