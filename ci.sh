#!/usr/bin/env bash
# CI entry point.
#
# 1. default build: full unit suite plus the fault-injection torture soak
#    (ctest label `torture`, see tests/test_torture.cpp) and the replicated
#    stable-storage soak (label `torture-storage`,
#    tests/test_torture_storage.cpp).
# 2. asan-ubsan build (CMakePresets.json / CKPT_SANITIZE): the same suite
#    and both torture soaks under AddressSanitizer + UBSanitizer.
# 3. data-loss gate: the storage-survivability bench replays the PR 1 fault
#    schedule against 1/2/3-way replication; any recovery that lost state
#    while an intact replica of a committed image existed fails the build.
# 4. pipeline gate: bench_pipeline measures the parallel commit pipeline
#    against the legacy serial commit loop and archives BENCH_pipeline.json.
#    Hard-fails if 1-worker and 8-worker commits are not bit-identical, or
#    if the large/3-way/4-worker speedup regresses below 1.3x (the headline
#    target is >= 2x, reported in the JSON).  CKPT_WORKERS sets the shared
#    pool width for the test suites (default: hardware concurrency, clamped).
# 5. observability gate: ckpt_report exports an observed soak's Chrome trace
#    at commit-pipeline widths 1 and 8; the files must be byte-identical
#    (the trace is part of the determinism contract) and strictly
#    well-formed (the binary lints its own exports).  bench_obs then
#    measures enabled-vs-disabled tracing on the commit loop and archives
#    BENCH_obs.json; enabled tracing above 2% overhead fails the build.
# 6. dedup gate: bench_dedup stores the same dirty-rate image sweep through
#    the flat blob path and a one-replica dedup ReplicatedStore and archives
#    BENCH_dedup.json.  Hard-fails if durable bytes per commit at a 10%
#    dirty rate exceed 0.3x the flat path, if any round-trip is not
#    bit-identical, or if replicated dedup replica contents differ between
#    1 and 8 commit workers.
# 7. journal gate: the JournalCrashReplay harness (every record boundary +
#    fuzzed intra-record corruption) must be green under the asan-ubsan
#    build, and bench_journal must show append-commit initiation >= 1.5x
#    faster than the two-phase publish at 4 concurrent writers with
#    1-vs-8-worker-identical log/home contents (BENCH_journal.json).
# 8. fleet gate: the 500+-node autonomic fleet soak (label `fleet`,
#    tests/test_fleet_soak.cpp — combined exponential+Weibull fail-stop,
#    detector false-suspicions, storage faults) must be green under both
#    builds including asan-ubsan, with zero data_loss_with_intact_replica
#    and 1-vs-8-worker byte-identical fleet reports/metrics/traces.
#    bench_fleet then sweeps 32..512 active nodes and archives
#    BENCH_fleet.json; commit efficiency < 0.9 at 512 nodes, < 4x commit
#    scaling 32->512, any data loss, or a 1-vs-8 digest mismatch fails the
#    build.
# 9. pause gate: the streaming identity/leak/fault tests run under
#    asan-ubsan, then bench_pause_time sweeps image size x dirty rate and
#    archives BENCH_pause.json.  A guest-visible pause reduction below 10x
#    at the largest image, or any 1-vs-8-worker difference in the streamed
#    replica bytes, fails the build.
# 10. mpi gate: the uncoordinated message-logging suite (sender log,
#    recovery-line resolver, restart-only-the-failed-rank, crash-point
#    replay) reruns under asan-ubsan, then bench_mpi sweeps rank count x
#    halo size and archives BENCH_mpi.json.  A coordinated drain that the
#    flat per-rank commit fails to beat at 128 ranks, any lost message,
#    any 1-vs-8-worker divergence, or a covered rollback deeper than one
#    checkpoint fails the build.
# 11. sim-time drift gate: BENCH_dedup.json, BENCH_journal.json,
#    BENCH_pause.json, BENCH_mpi.json and BENCH_fleet.json carry
#    simulated-time figures only; after gates 6-10 rewrite them, any
#    `git diff` against the committed files fails the build.
# 12. crc gate: prints the kernel util::crc64() dispatches to, reruns the
#    CRC64 kernel-equivalence and combine-oracle tests, the dedup suite
#    (whose resolver parses chunk headers before any CRC) and the
#    storage core's golden digest under asan-ubsan, then runs
#    micro_substrate's BM_Crc64 on its 64 KiB buffer and BM_Crc64Combine
#    on a 64 KiB length.  When a carry-less-multiply kernel was selected,
#    below 4 GiB/s or a combine above 1 us fails the build; below the
#    8 GiB/s target or a combine above 100 ns only warns, since
#    wall-clock numbers are noisy on shared runners.
# 13. docs lint: ARCHITECTURE.md and DESIGN.md must mention every src/
#    module, DESIGN.md section numbering must be contiguous, and every
#    intra-repo markdown link in the top-level docs must resolve — both
#    the path and, for links with a #fragment, a matching heading anchor
#    in the target document.
# 14. verdict gate: every verdict-printing bench (each claim_* binary,
#    ablation_trackers and table1_feature_matrix) must exit 0, print at
#    least one [HOLDS] verdict and no [DEVIATES] verdict — the
#    EXPERIMENTS.md claims stay checked, not just recorded.
#
# Every BENCH_*.json artifact a gate writes (pipeline, obs, dedup, journal,
# fleet, pause, mpi) lands at the repo root and is tracked in git, so a
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

# Data-loss gate (see RecoveryReport::data_loss_with_intact_replica and the
# harness's unexpected_failures/scrub_failures counters).
SURVIVABILITY="$(./build/bench/claim_storage_survivability)"
echo "${SURVIVABILITY}"
if ! grep -q "^data-loss-with-intact-replica events: 0$" <<<"${SURVIVABILITY}"; then
  echo "CI gate: a recovery lost state although an intact replica existed" >&2
  exit 1
fi
if grep -q "DATA LOSS WITH INTACT REPLICA" <<<"${SURVIVABILITY}"; then
  echo "CI gate: a RecoveryReport flagged data loss with an intact replica" >&2
  exit 1
fi

# Commit-pipeline gate: determinism is a hard invariant; throughput gets a
# loose regression floor (1.3x) so a noisy shared runner cannot flake the
# build, while the JSON archives the actual measured speedup (target 2x).
./build/bench/bench_pipeline BENCH_pipeline.json
if ! grep -q '"identical_1v8": true' BENCH_pipeline.json; then
  echo "CI gate: 1-worker and 8-worker commits are not bit-identical" >&2
  exit 1
fi
SPEEDUP="$(sed -n 's/.*"speedup_large_3way_4workers": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)"
if ! awk -v s="${SPEEDUP}" 'BEGIN { exit !(s >= 1.3) }'; then
  echo "CI gate: pipeline speedup ${SPEEDUP}x regressed below the 1.3x floor" >&2
  exit 1
fi
echo "pipeline gate: speedup ${SPEEDUP}x (floor 1.3x, target 2x), determinism ok"

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

# Enabled-tracing overhead on the commit loop (< 2%, with a little slack for
# shared-runner noise baked into the bench's A/B/A interleave).
./build/bench/bench_obs BENCH_obs.json
if ! grep -q '"holds": true' BENCH_obs.json; then
  echo "CI gate: enabled tracing exceeded the 2% commit-overhead budget" >&2
  exit 1
fi
OBS_OVERHEAD="$(sed -n 's/.*"overhead_pct": \([-0-9.]*\).*/\1/p' BENCH_obs.json)"
echo "observability gate: trace worker-invariant, overhead ${OBS_OVERHEAD}% (budget 2%)"

# Dedup gate: durable volume must track the dirty rate, and the
# content-addressed store must never bend the correctness invariants to get
# there (exact round-trips, worker-count-invariant replicas).
./build/bench/bench_dedup BENCH_dedup.json
if ! grep -q '"holds": true' BENCH_dedup.json; then
  echo "CI gate: dedup store failed its volume/correctness gate" >&2
  exit 1
fi
DEDUP_RATIO="$(sed -n 's/.*"ratio_10pct_dirty": \([0-9.]*\).*/\1/p' BENCH_dedup.json)"
echo "dedup gate: ${DEDUP_RATIO}x durable bytes at 10% dirty (ceiling 0.3x), round-trips exact"

# Journal gate: the crash-point replay harness must hold under the
# sanitizers (torn-tail recovery is exactly where latent UB would hide), and
# append-commit must actually buy its keep over the two-phase publish path.
ctest --preset asan-ubsan -R 'JournalCrashReplay' --output-on-failure
./build/bench/bench_journal BENCH_journal.json
if ! grep -q '"holds": true' BENCH_journal.json; then
  echo "CI gate: journal append-commit failed its speedup/determinism gate" >&2
  exit 1
fi
JOURNAL_SPEEDUP="$(sed -n 's/.*"speedup_append_4writers": \([0-9.]*\).*/\1/p' BENCH_journal.json)"
if ! awk -v s="${JOURNAL_SPEEDUP}" 'BEGIN { exit !(s >= 1.5) }'; then
  echo "CI gate: append-commit speedup ${JOURNAL_SPEEDUP}x fell below the 1.5x floor" >&2
  exit 1
fi
echo "journal gate: crash replay green under asan-ubsan, append-commit ${JOURNAL_SPEEDUP}x (floor 1.5x)"

# Fleet gate: the soak itself ran above under both builds (ctest label
# `fleet`); bench_fleet adds the node-count sweep with its efficiency,
# scaling, data-loss and worker-identity floors.
./build/bench/bench_fleet BENCH_fleet.json
if ! grep -q '"holds": true' BENCH_fleet.json; then
  echo "CI gate: fleet sweep failed its efficiency/scaling/data-loss gate" >&2
  exit 1
fi
if ! grep -q '"data_loss_with_intact_replica": 0' BENCH_fleet.json; then
  echo "CI gate: fleet sweep lost state although an intact replica existed" >&2
  exit 1
fi
if ! grep -q '"identical_1v8": true' BENCH_fleet.json; then
  echo "CI gate: fleet report differs between 1 and 8 workers" >&2
  exit 1
fi
FLEET_EFF="$(sed -n 's/.*"efficiency_at_512": \([0-9.]*\).*/\1/p' BENCH_fleet.json)"
FLEET_SCALE="$(sed -n 's/.*"scaling_32_to_512": \([0-9.]*\).*/\1/p' BENCH_fleet.json)"
echo "fleet gate: soak green, efficiency ${FLEET_EFF} (floor 0.9), scaling ${FLEET_SCALE}x (floor 4x), determinism ok"

# Pause gate: the streaming commit path's identity/leak/mid-stream-fault
# tests rerun under the sanitizers (the chunk pipeline and shadow reaping
# are exactly where lifetime bugs would hide), then bench_pause_time sweeps
# image size x dirty rate.  The fork-snapshot pause must stay >= 10x below
# stop-the-world at the largest image, with 1-vs-8-worker identical bytes.
ctest --preset asan-ubsan -R 'Streaming' --output-on-failure
./build/bench/bench_pause_time BENCH_pause.json
if ! grep -q '"holds": true' BENCH_pause.json; then
  echo "CI gate: streaming commit failed its pause-reduction/identity gate" >&2
  exit 1
fi
if ! grep -q '"identical_1v8": true' BENCH_pause.json; then
  echo "CI gate: streamed replica bytes differ between 1 and 8 workers" >&2
  exit 1
fi
PAUSE_REDUCTION="$(sed -n 's/.*"pause_reduction_large": \([0-9.]*\).*/\1/p' BENCH_pause.json)"
if ! awk -v r="${PAUSE_REDUCTION}" 'BEGIN { exit !(r >= 10.0) }'; then
  echo "CI gate: pause reduction ${PAUSE_REDUCTION}x fell below the 10x floor" >&2
  exit 1
fi
echo "pause gate: guest-visible pause cut ${PAUSE_REDUCTION}x (floor 10x), streamed bytes worker-invariant"

# MPI gate: the message-log/recovery-line/replay suite reruns under the
# sanitizers (rewind + replay juggle raw payload buffers — exactly where
# lifetime bugs would hide), then bench_mpi sweeps rank count x halo size
# with the crash-point replay and rollback-depth scenarios.
ctest --preset asan-ubsan -R 'Uncoordinated|MessageLog|RollbackResolver' --output-on-failure
./build/bench/bench_mpi BENCH_mpi.json
if ! grep -q '"holds": true' BENCH_mpi.json; then
  echo "CI gate: uncoordinated MPI failed its latency/lossless/depth gate" >&2
  exit 1
fi
if ! grep -q '"lost_messages": 0' BENCH_mpi.json; then
  echo "CI gate: a receiver observed a sequence gap (lost message)" >&2
  exit 1
fi
if ! grep -q '"identical_1v8": true' BENCH_mpi.json; then
  echo "CI gate: mpi replay outcome differs between 1 and 8 workers" >&2
  exit 1
fi
MPI_DEPTH="$(sed -n 's/.*"rollback_depth_double_journal": \([0-9]*\).*/\1/p' BENCH_mpi.json)"
if [ "${MPI_DEPTH}" != "1" ]; then
  echo "CI gate: journal-covered double failure rolled back ${MPI_DEPTH} checkpoints (must be 1)" >&2
  exit 1
fi
MPI_MEAN="$(sed -n 's/.*"uncoordinated_commit_mean_ms": \([0-9.]*\).*/\1/p' BENCH_mpi.json | tail -1)"
echo "mpi gate: commit mean ${MPI_MEAN} ms flat at 128 ranks, zero lost messages, covered rollback depth 1"

# Sim-time drift gate: these five reports hold simulated-time figures only,
# so a rebuilt bench must reproduce the committed file byte for byte.  Any
# diff means a change moved a stored byte, a charge or a digest.
git diff --exit-code -- BENCH_dedup.json BENCH_journal.json BENCH_pause.json BENCH_mpi.json \
  BENCH_fleet.json

# CRC gate: the folding kernels must match the bytewise oracle (and leave
# the golden storage digest alone) under the sanitizers, and be fast.
ctest --preset asan-ubsan -R 'Crc64|StorageCoreGolden|Dedup' --output-on-failure
CRC_JSON="$(./build/bench/micro_substrate --benchmark_filter='^BM_Crc64/65536$' \
  --benchmark_format=json 2>/dev/null)"
CRC_KERNEL="$(sed -n 's/.*"crc64_kernel": "\([a-z0-9]*\)".*/\1/p' <<<"${CRC_JSON}")"
CRC_GIBS="$(sed -n 's/.*"bytes_per_second": \([-0-9.e+]*\).*/\1/p' <<<"${CRC_JSON}" \
  | awk '{ printf "%.2f", $1 / 1073741824 }')"
COMBINE_NS="$(./build/bench/micro_substrate --benchmark_filter='^BM_Crc64Combine/65536$' \
  --benchmark_format=json 2>/dev/null \
  | sed -n 's/.*"real_time": \([-0-9.e+]*\).*/\1/p' | awk '{ printf "%.1f", $1 }')"
echo "crc gate: crc64 kernel ${CRC_KERNEL}, ${CRC_GIBS} GiB/s on a 64 KiB buffer," \
  "combine ${COMBINE_NS} ns"
if [ "${CRC_KERNEL}" != "sliced" ]; then
  if ! awk -v g="${CRC_GIBS}" 'BEGIN { exit !(g >= 4.0) }'; then
    echo "CI gate: crc64 kernel ${CRC_KERNEL} ran at ${CRC_GIBS} GiB/s, below the 4 GiB/s floor" >&2
    exit 1
  fi
  if ! awk -v g="${CRC_GIBS}" 'BEGIN { exit !(g >= 8.0) }'; then
    echo "crc gate: warning: ${CRC_GIBS} GiB/s is below the 8 GiB/s target" >&2
  fi
  if ! awk -v t="${COMBINE_NS}" 'BEGIN { exit !(t != "" && t <= 1000) }'; then
    echo "CI gate: crc64_combine took ${COMBINE_NS} ns on ${CRC_KERNEL}, above the 1 us ceiling" >&2
    exit 1
  fi
  if ! awk -v t="${COMBINE_NS}" 'BEGIN { exit !(t <= 100) }'; then
    echo "crc gate: warning: crc64_combine took ${COMBINE_NS} ns, above the 100 ns target" >&2
  fi
fi

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
