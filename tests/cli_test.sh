#!/usr/bin/env bash
# Command-line checks of the shared scenario/flag table. Usage:
#   cli_test.sh sweep_golden <wasp_sweep> <repo_root>
#       Runs the pinned 48-cell grid at --jobs=2 from the repo root and
#       compares the merged JSONL byte-for-byte against
#       tests/golden/sweep_grid.jsonl.gz (tests/golden/README.md).
#   cli_test.sh sites_alias <wasp_sim>
#       --sites=8 and --topology=uniform:sites=8 must produce the same trace
#       (wall_us stripped).
#   cli_test.sh help_rows <wasp_sim> <wasp_sweep> <bench_driver>
#       Every row a tool's --help lists is accepted by that tool, and a row
#       the tools share prints the same help block in each of them.
#   cli_test.sh fail_range <wasp_sim>
#       --fail=T:DURATION refuses T < 0 and DURATION <= 0 with exit 2 and
#       the row's error, instead of running with no (or an empty) outage.
set -u

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

strip_wall() { sed -E 's/,"wall_us":[-+0-9.eE]+//g' "$1"; }

# The help block of row $2 in help text file $1: its first line and the
# continuation lines indented past the usage column.
help_block() {
  awk -v row="$2" '
    index($0, "  " row) == 1 { on = 1; print; next }
    on && /^   / { print; next }
    { on = 0 }' "$1"
}

case "$1" in
  sweep_golden)
    SWEEP="$2"
    cd "$3" || exit 1
    "${SWEEP}" --grid "topology=paper,uniform:sites=8,edge:sites=36;regions=4" \
      policy=wasp,static trace=live,none fault=none,examples/chaos_smoke.fsched \
      workload-step=300:2+450:1 seeds=3,7 --duration=560 --jobs=2 --quiet \
      --out="${WORK}/sweep.jsonl" 2>/dev/null
    rc=$?
    # The 8 uniform:sites=8 x chaos_smoke cells are refused (the schedule
    # names sites 9+), so the sweep exits 1; anything else is a failure.
    [ "${rc}" -le 1 ] || { echo "wasp_sweep exited ${rc}" >&2; exit 1; }
    gzip -dc tests/golden/sweep_grid.jsonl.gz > "${WORK}/golden.jsonl" || exit 1
    if cmp "${WORK}/golden.jsonl" "${WORK}/sweep.jsonl"; then
      echo "golden sweep_grid: byte-identical"
      exit 0
    fi
    diff "${WORK}/golden.jsonl" "${WORK}/sweep.jsonl" | head -20 >&2
    exit 1
    ;;
  sites_alias)
    SIM="$2"
    "${SIM}" --sites=8 --live-bandwidth --duration=120 \
      --trace-out="${WORK}/sites.jsonl" >/dev/null || exit 1
    "${SIM}" --topology=uniform:sites=8 --live-bandwidth --duration=120 \
      --trace-out="${WORK}/topology.jsonl" >/dev/null || exit 1
    strip_wall "${WORK}/sites.jsonl" > "${WORK}/a"
    strip_wall "${WORK}/topology.jsonl" > "${WORK}/b"
    cmp "${WORK}/a" "${WORK}/b" || exit 1
    echo "--sites=8 == --topology=uniform:sites=8 ($(wc -l < "${WORK}/a") events)"
    ;;
  help_rows)
    shift
    status=0
    for tool in "$@"; do
      "${tool}" --help > "${WORK}/help" || { echo "${tool} --help failed"; exit 1; }
      rows=$(grep -oE '^  --[a-z-]+(=| )?' "${WORK}/help")
      [ -n "${rows}" ] || { echo "${tool}: no rows in --help"; exit 1; }
      for row in ${rows}; do
        [ "${row}" = "--help" ] && continue
        # A row ending in '=' takes a value; the value may be rejected, but
        # the flag itself must never be unknown.
        arg="${row}"
        [ "${row%=}" != "${row}" ] && arg="${row}x"
        if "${tool}" "${arg}" --help 2>&1 | grep -q "unknown argument"; then
          echo "$(basename "${tool}"): --help lists ${row} but rejects it"
          status=1
        fi
      done
      help_block "${WORK}/help" --profile-every= > "${WORK}/block.$(basename "${tool}")"
    done
    first=""
    for block in "${WORK}"/block.*; do
      [ -s "${block}" ] || { echo "no --profile-every row in ${block}"; status=1; }
      if [ -z "${first}" ]; then first="${block}"; continue; fi
      cmp -s "${first}" "${block}" || {
        echo "--profile-every help differs: ${first} vs ${block}"
        status=1
      }
    done
    [ "${status}" = 0 ] && echo "help rows: $# tools, every listed row accepted"
    exit "${status}"
    ;;
  fail_range)
    SIM="$2"
    status=0
    for arg in --fail=-100:50 --fail=100:-50 --fail=100:0; do
      "${SIM}" "${arg}" --duration=60 > /dev/null 2> "${WORK}/err"
      rc=$?
      if [ "${rc}" != 2 ] || ! grep -q "invalid value in ${arg}" "${WORK}/err"; then
        echo "${arg}: exit ${rc}, stderr: $(cat "${WORK}/err")"
        status=1
      fi
    done
    [ "${status}" = 0 ] && echo "--fail: negative start and non-positive duration refused"
    exit "${status}"
    ;;
  *)
    echo "unknown check: $1" >&2
    exit 2
    ;;
esac
