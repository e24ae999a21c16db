#!/usr/bin/env bash
# CI entry point.
#
# 1. default build: full unit suite plus the fault-injection torture soak
#    (ctest label `torture`, see tests/test_torture.cpp), the replicated
#    stable-storage soak (label `torture-storage`,
#    tests/test_torture_storage.cpp) and the 500+-node fleet soak (label
#    `fleet`, tests/test_fleet_soak.cpp).
# 2. asan-ubsan build (CMakePresets.json / CKPT_SANITIZE): the same suite
#    and all three soaks under AddressSanitizer + UBSanitizer.  This covers
#    every crash-replay, streaming, message-log, CRC and golden-digest test.
# 3. observability gate: ckpt_report exports an observed soak's Chrome trace
#    at commit-pipeline widths 1 and 8; the files must be byte-identical
#    (the trace is part of the determinism contract) and strictly
#    well-formed (the binary lints its own exports).
# 4. bench gates: each bench_* binary declares its own bounds, prints a gate
#    table, writes its BENCH_*.json (one envelope, bench/bench_report.hpp)
#    and exits non-zero when a fail-level gate fails; a missed warn-level
#    target only warns.  The bounds live in each bench's source and in the
#    "gates" array of its JSON.  micro_substrate's two 64 KiB CRC runs do
#    the same for the crc gate (BENCH_crc.json): crc64() and
#    crc64_combine() must be fast whenever a carry-less-multiply kernel was
#    selected.
# 5. sim-time drift gate: BENCH_dedup.json, BENCH_journal.json,
#    BENCH_pause.json, BENCH_mpi.json and BENCH_fleet.json carry
#    simulated-time figures only; after gate 4 rewrites them, any `git diff`
#    against the committed files fails the build.
# 6. docs lint: ARCHITECTURE.md and DESIGN.md must mention every src/
#    module, DESIGN.md section numbering must be contiguous, and every
#    intra-repo markdown link in the top-level docs must resolve — both
#    the path and, for links with a #fragment, a matching heading anchor
#    in the target document.
# 7. verdict gate: every verdict-printing bench (each claim_* binary,
#    ablation_trackers and table1_feature_matrix) must exit 0, print at
#    least one [HOLDS] verdict and no [DEVIATES] verdict — the
#    EXPERIMENTS.md claims stay checked, not just recorded.
# 8. perfbench smoke: the repository benchmark (perfbench/, its own CMake
#    project over src/) must build and run every workload for one second,
#    plain (--trace 0) and traced (--trace 1), exit 0 and report
#    "correct": true with "failed": 0 on its last line, so a src/ change
#    that breaks it fails here rather than in the benchmark.  A traced run
#    checks that its timed passes leave the ids, bytes and counts of its
#    plain ones: a prune's verify goes through the timing decorator's load
#    there and through the store's own verify in the plain passes, so a
#    drift between the two that changes what a pass leaves fails here.
#
# Every BENCH_*.json lands at the repo root and is tracked in git, so a
# checkout always carries the numbers behind EXPERIMENTS.md and a
# regression shows up as a diff, not a vanished file.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake --preset default
cmake --build --preset default -j"${JOBS}"
ctest --preset default -j"${JOBS}"
ctest --preset torture
ctest --preset torture-storage
ctest --preset fleet

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"${JOBS}"
ctest --preset asan-ubsan -j"${JOBS}"
ctest --preset torture-asan-ubsan
ctest --preset torture-storage-asan-ubsan
ctest --preset fleet-asan-ubsan

# Observability gate: worker-count trace invariance + well-formedness.
# ckpt_report exits non-zero when its own strict JSON lint rejects either
# the trace or the metrics snapshot, so a plain run is the schema check.
./build/examples/ckpt_report trace_w1.json 1 >/dev/null
./build/examples/ckpt_report trace_w8.json 8 >/dev/null
if ! cmp -s trace_w1.json trace_w8.json; then
  echo "CI gate: observed trace differs between 1 and 8 commit workers" >&2
  exit 1
fi
rm -f trace_w8.json

# Bench gates: each bench checks its own bounds and writes BENCH_*.json.
for bench in pipeline obs dedup journal fleet pause_time mpi; do
  if ! "./build/bench/bench_${bench}"; then
    echo "CI gate: bench_${bench} failed a fail-level gate" >&2
    exit 1
  fi
done
if ! ./build/bench/micro_substrate --benchmark_filter='^BM_Crc64(Combine)?/65536$'; then
  echo "CI gate: micro_substrate failed a fail-level crc gate" >&2
  exit 1
fi

# Sim-time drift gate: these five reports hold simulated-time figures only,
# so a rebuilt bench must reproduce the committed file byte for byte.  Any
# diff means a change moved a stored byte, a charge or a digest.
git diff --exit-code -- BENCH_dedup.json BENCH_journal.json BENCH_pause.json BENCH_mpi.json \
  BENCH_fleet.json

# Docs lint.
for module in src/*/; do
  name="$(basename "${module}")"
  for doc in ARCHITECTURE.md DESIGN.md; do
    if ! grep -q "src/${name}" "${doc}"; then
      echo "docs lint: ${doc} does not mention module src/${name}" >&2
      exit 1
    fi
  done
done
expected=1
while read -r section; do
  if [ "${section}" -ne "${expected}" ]; then
    echo "docs lint: DESIGN.md section ${section} breaks contiguous numbering (expected ${expected})" >&2
    exit 1
  fi
  expected=$((expected + 1))
done < <(sed -n 's/^## \([0-9][0-9]*\).*/\1/p' DESIGN.md)
# GitHub-style heading anchor: lowercase, drop everything but
# alphanumerics/spaces/hyphens, then spaces -> hyphens.
anchor_of() {
  printf '%s' "$1" | tr '[:upper:]' '[:lower:]' \
    | sed 's/[^a-z0-9 -]//g; s/ /-/g'
}
for doc in README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md ROADMAP.md; do
  while read -r link; do
    case "${link}" in
      http://*|https://*|mailto:*) continue ;;
    esac
    target="${link%%#*}"
    fragment=""
    case "${link}" in
      *'#'*) fragment="${link#*#}" ;;
    esac
    if [ -n "${target}" ] && [ ! -e "${target}" ]; then
      echo "docs lint: ${doc} links to missing path '${target}'" >&2
      exit 1
    fi
    # A #fragment must name a real heading anchor in the target document
    # (the linking document itself when the path part is empty).
    if [ -n "${fragment}" ]; then
      anchor_target="${target:-${doc}}"
      case "${anchor_target}" in
        *.md)
          found=0
          while read -r heading; do
            if [ "$(anchor_of "${heading}")" = "${fragment}" ]; then
              found=1
              break
            fi
          done < <(sed -n 's/^#\{1,6\} //p' "${anchor_target}")
          if [ "${found}" -ne 1 ]; then
            echo "docs lint: ${doc} links to '#${fragment}' but ${anchor_target} has no such heading" >&2
            exit 1
          fi
          ;;
      esac
    fi
  done < <(grep -o '](\([^)]*\))' "${doc}" | sed 's/^](\(.*\))$/\1/')
done
echo "docs lint: module maps complete, section numbering contiguous, links and anchors resolve"

# Verdict gate: the claims EXPERIMENTS.md records as HOLDS must still hold.
VERDICTS=0
for bench in build/bench/claim_* build/bench/ablation_trackers build/bench/table1_feature_matrix; do
  if ! OUTPUT="$("${bench}")"; then
    echo "CI gate: ${bench} exited non-zero" >&2
    exit 1
  fi
  if grep -q '^\[DEVIATES\]' <<<"${OUTPUT}" || ! grep -q '^\[HOLDS\]' <<<"${OUTPUT}"; then
    echo "CI gate: ${bench} printed a [DEVIATES] verdict or none at all" >&2
    exit 1
  fi
  VERDICTS=$((VERDICTS + 1))
done
echo "verdict gate: ${VERDICTS} benches, every verdict HOLDS"

# Perfbench smoke: build and briefly run the repository benchmark, plain and
# traced.
for TRACE in 0 1; do
  if ! PERF_OUTPUT="$(python3 perfbench/run.py --workload all --seconds 1 --seed 1 --trace "${TRACE}")"; then
    echo "CI gate: perfbench --trace ${TRACE} failed to build or run" >&2
    exit 1
  fi
  if ! tail -n 1 <<<"${PERF_OUTPUT}" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)'; then
    echo "CI gate: perfbench --trace ${TRACE}'s result line is not correct with zero failed operations" >&2
    exit 1
  fi
done
echo "perfbench smoke: every workload built, ran plain and traced, and reported correct with 0 failed"
