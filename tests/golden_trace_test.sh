#!/usr/bin/env bash
# Golden tick-trace byte-identity check. Usage:
#   golden_trace_test.sh <wasp_sim> <wasp_trace> <repo_root> <scenario>
# Runs one evaluation scenario and compares the produced JSONL trace
# byte-for-byte against the checked-in golden (tests/golden/<scenario>.jsonl.gz)
# after dropping the one wall-clock field ("wall_us" on span_end events),
# which measures real host time and is legitimately nondeterministic. Every
# simulated quantity must match to the byte.
set -u

SIM="$1"
TRACE_TOOL="$2"
ROOT="$3"
SCENARIO="$4"

GOLDEN_GZ="${ROOT}/tests/golden/${SCENARIO}.jsonl.gz"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
OUT="${WORK}/${SCENARIO}.jsonl"
REF="${WORK}/${SCENARIO}.golden.jsonl"

case "${SCENARIO}" in
  fig09)
    "${SIM}" --query=topk --mode=wasp --duration=120 --live-bandwidth \
      --seed=7 --trace-out="${OUT}" >/dev/null || exit 1
    ;;
  fig11)
    "${SIM}" --query=topk --mode=wasp --duration=150 --live-bandwidth \
      --live-workload --workload-step=60:2.0 --bandwidth-step=100:0.5 \
      --seed=11 --trace-out="${OUT}" >/dev/null || exit 1
    ;;
  chaos_smoke)
    "${SIM}" --fault-schedule="${ROOT}/examples/chaos_smoke.fsched" \
      --duration=560 --seed=7 --trace-out="${OUT}" >/dev/null || exit 1
    ;;
  domain_down_standby)
    "${SIM}" --fault-schedule="${ROOT}/examples/domain_down.fsched" \
      --duration=600 --seed=7 --standby-replicas=1 --trace-out="${OUT}" \
      >/dev/null || exit 1
    ;;
  planet_region_down)
    "${SIM}" --topology=edge:sites=36,regions=4 \
      --fault-schedule="${ROOT}/examples/planet_region_down.fsched" \
      --rate=500 --duration=65 --seed=7 --trace-out="${OUT}" >/dev/null \
      || exit 1
    ;;
  *)
    echo "unknown scenario: ${SCENARIO}" >&2
    exit 2
    ;;
esac

gzip -dc "${GOLDEN_GZ}" > "${REF}" || exit 1
STRIPPED="${WORK}/${SCENARIO}.stripped.jsonl"
sed -E 's/,"wall_us":[-+0-9.eE]+//g' "${OUT}" > "${STRIPPED}"

if cmp -s "${REF}" "${STRIPPED}"; then
  echo "golden ${SCENARIO}: byte-identical ($(wc -c < "${STRIPPED}") bytes)"
  exit 0
fi

echo "golden ${SCENARIO}: trace DIVERGED from checked-in golden" >&2
cmp "${REF}" "${STRIPPED}" >&2
"${TRACE_TOOL}" diff "${REF}" "${OUT}" >&2
exit 1
