#!/usr/bin/env bash
# Tier-1 verify plus a bench smoke pass (so bench binaries cannot
# bit-rot silently), with sanitizer modes that run the executor tests
# under TSan/ASan/UBSan — races in the morsel-driven worker pool (and
# UB the optimizer could weaponize) must fail the build, not corrupt
# results silently — and static-analysis modes: `--lint` runs the
# repo's own contract lint (scripts/lint.py) plus the clang-format
# drift check on src/exec/, `--tidy` runs clang-tidy (.clang-tidy)
# over src/ against the build's compile_commands.json.
# `--thread-safety` arms clang's Thread Safety Analysis
# (-Werror=thread-safety over the GUARDED_BY contracts; see
# docs/ARCHITECTURE.md §"Static analysis & concurrency contracts").
# `--service` runs the query-service load-harness smoke (K closed-loop
# socket clients vs the row-mode oracle) and gates BENCH_service.json
# on its admission counters.
#
# `--mvcc` runs the epoch-snapshot stress gate: the differential MVCC
# harness (tests/mvcc_stress_test.cc) under ThreadSanitizer with three
# fixed seeds plus one time-derived seed (echoed into the log so any
# failure replays with --seed=N).
#
# `--vm` runs the compiled-execution gate: the VM unit suite plus the
# three-way differential fuzz harness (tests/vm_diff_test.cc — bytecode
# VM vs operator tree vs row-mode oracle) under ThreadSanitizer with
# seeds 1/2/3 plus a time-derived seed, then bench_vm's structural
# counter gate out of BENCH_vm.json (fused dispatches strictly below
# the tree's operator hand-offs; zero steady-state arena growth).
#
# `--storage` runs the paged-storage gate: the pager/zone-map unit
# suite plus the segment differential harness (tests/segment_diff_test.cc
# — segment-backed scans vs the in-memory extent vs the row-mode
# oracle, across serial/parallel/VM drains and under concurrent
# writers) under ThreadSanitizer, then bench_storage's structural
# counter gate out of BENCH_storage.json (zone maps must skip segments
# on the selective workload; the re-scan loop must hit the buffer
# cache more than it misses).
#
# Usage: scripts/ci.sh [--skip-bench] [--tsan|--asan|--ubsan]
#                      [--lint] [--tidy] [--thread-safety] [--service]
#                      [--mvcc] [--vm] [--storage]
#                      [--build-type=TYPE] [--build-dir=DIR]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_BENCH=0
SANITIZE=""
BUILD_TYPE=""
BUILD_DIR=""
LINT=0
TIDY=0
THREAD_SAFETY=0
SERVICE=0
MVCC=0
VM=0
STORAGE=0
for arg in "$@"; do
  case "$arg" in
    --skip-bench) SKIP_BENCH=1 ;;
    --tsan) SANITIZE=thread ;;
    --asan) SANITIZE=address ;;
    --ubsan) SANITIZE=undefined ;;
    --lint) LINT=1 ;;
    --tidy) TIDY=1 ;;
    --thread-safety) THREAD_SAFETY=1 ;;
    --service) SERVICE=1 ;;
    --mvcc) MVCC=1 ;;
    --vm) VM=1 ;;
    --storage) STORAGE=1 ;;
    --build-type=*) BUILD_TYPE="${arg#*=}" ;;
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    *) echo "usage: scripts/ci.sh [--skip-bench] [--tsan|--asan|--ubsan]" \
            "[--lint] [--tidy] [--thread-safety] [--service] [--mvcc]" \
            "[--vm] [--storage] [--build-type=TYPE] [--build-dir=DIR]" >&2
       exit 2 ;;
  esac
done

THREAD_SAFETY_FLAG=""
if [[ "$THREAD_SAFETY" == "1" ]]; then
  THREAD_SAFETY_FLAG="-DVODAK_THREAD_SAFETY=ON"
fi

# ---------------------------------------------------------------- --lint
# The vodak contract lint plus the format drift check; a pure
# static pass, so it neither needs nor builds a tree.
if [[ "$LINT" == "1" ]]; then
  echo "== lint: scripts/lint.py =="
  python3 scripts/lint.py
  echo "== lint: clang-format drift check (src/exec/) =="
  CLANG_FORMAT="${CLANG_FORMAT:-}"
  if [[ -z "$CLANG_FORMAT" ]]; then
    for candidate in clang-format clang-format-2{0,1} clang-format-1{9,8,7,6,5,4}; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CLANG_FORMAT="$candidate"
        break
      fi
    done
  fi
  if [[ -n "$CLANG_FORMAT" ]]; then
    "$CLANG_FORMAT" --dry-run -Werror src/exec/*.h src/exec/*.cc
    echo "lint: src/exec/ is clang-format clean"
  else
    # Tolerated locally (the image may lack LLVM tools); the CI lint
    # job always has clang-format, so drift still cannot land.
    echo "lint: clang-format not found; skipping the drift check" >&2
  fi
fi

# ---------------------------------------------------------------- --tidy
if [[ "$TIDY" == "1" ]]; then
  echo "== tidy: clang-tidy over src/ =="
  CLANG_TIDY="${CLANG_TIDY:-}"
  if [[ -z "$CLANG_TIDY" ]]; then
    for candidate in clang-tidy clang-tidy-2{0,1} clang-tidy-1{9,8,7,6,5,4}; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CLANG_TIDY="$candidate"
        break
      fi
    done
  fi
  if [[ -z "$CLANG_TIDY" ]]; then
    echo "ci.sh: --tidy needs clang-tidy on PATH (or CLANG_TIDY=...);" \
         "not found" >&2
    exit 1
  fi
  TIDY_BUILD_DIR="${BUILD_DIR:-build-tidy}"
  # Any configured tree emits compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally); building is
  # not required, but FetchContent'd gtest headers must exist for the
  # test includes, so configure is.
  cmake -B "$TIDY_BUILD_DIR" -S . \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  "$CLANG_TIDY" -p "$TIDY_BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
  echo "tidy: ${#TIDY_SOURCES[@]} files clean"
fi

if [[ "$LINT" == "1" || "$TIDY" == "1" ]]; then
  echo "== ci.sh (static analysis): all green =="
  exit 0
fi

if [[ -n "$SANITIZE" ]]; then
  : "${BUILD_DIR:=build-$SANITIZE}"
  echo "== sanitizer ($SANITIZE): configure + build + executor tests =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE="$SANITIZE" \
        ${THREAD_SAFETY_FLAG:+"$THREAD_SAFETY_FLAG"} \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"}
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target exec_batch_test exec_parallel_test exec_selvec_test \
                 exec_shared_scan_test engine_submit_test service_test \
                 mvcc_edge_test mvcc_stress_test vm_test vm_diff_test \
                 storage_test segment_diff_test value_test vql_test \
                 objstore_test engine_test exec_test property_test
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'exec_batch_test|exec_parallel_test|exec_selvec_test|exec_shared_scan_test|engine_submit_test|service_test|mvcc_edge_test|mvcc_stress_test|vm_test|vm_diff_test|storage_test|segment_diff_test|value_test|vql_test|objstore_test|engine_test|exec_test|property_test'
  echo "== ci.sh ($SANITIZE): all green =="
  exit 0
fi

# ----------------------------------------------------------------- --mvcc
# The epoch-snapshot stress gate: the differential MVCC harness under
# ThreadSanitizer. Three fixed seeds make the leg reproducible run to
# run; the fourth, time-derived seed walks the schedule space so the
# suite keeps probing new interleavings — it is echoed (and printed by
# the binary itself) so a failing run replays exactly.
if [[ "$MVCC" == "1" ]]; then
  : "${BUILD_DIR:=build-mvcc-tsan}"
  echo "== mvcc: TSan build of the stress + edge suites =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE=thread \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target mvcc_stress_test mvcc_edge_test
  echo "== mvcc: deterministic edge cases =="
  "$BUILD_DIR"/mvcc_edge_test
  TIME_SEED="$(date +%s)"
  echo "== mvcc: stress seeds 1 2 3 $TIME_SEED (time-derived) =="
  for seed in 1 2 3 "$TIME_SEED"; do
    echo "-- mvcc_stress_test --seed=$seed"
    "$BUILD_DIR"/mvcc_stress_test --seed="$seed"
  done
  echo "== ci.sh (mvcc): all green =="
  exit 0
fi

# ------------------------------------------------------------------ --vm
# The compiled-execution gate, in two halves. Correctness first: the
# deterministic opcode/compiler units, then the three-way differential
# fuzz harness (tests/vm_diff_test.cc — bytecode VM vs operator tree vs
# row-mode oracle, >=1000 generated queries per seed, plus the
# concurrent-writer run that replays the oracle at the reader's pinned
# epoch) under ThreadSanitizer with three fixed seeds and one
# time-derived seed (echoed so any failure replays with --seed=N).
# Then performance, gated on deterministic counters rather than wall
# clock (CI is 1-core): bench_vm self-checks and BENCH_vm.json must
# show fusion collapsing the per-operator virtual hand-offs
# (vm_dispatches strictly below operator_handoffs_tree) and a
# steady-state drain that never grows the QueryArena
# (arena_allocations_steady exactly zero).
if [[ "$VM" == "1" ]]; then
  : "${BUILD_DIR:=build-vm-tsan}"
  echo "== vm: TSan build of the VM unit + differential suites =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE=thread \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target vm_test vm_diff_test
  echo "== vm: deterministic opcode + compiler units =="
  "$BUILD_DIR"/vm_test
  TIME_SEED="$(date +%s)"
  echo "== vm: differential fuzz seeds 1 2 3 $TIME_SEED (time-derived) =="
  for seed in 1 2 3 "$TIME_SEED"; do
    echo "-- vm_diff_test --seed=$seed"
    "$BUILD_DIR"/vm_diff_test --seed="$seed"
  done
  echo "== vm: bench_vm counter gate (plain build) =="
  VM_BENCH_DIR=build
  cmake -B "$VM_BENCH_DIR" -S . \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$VM_BENCH_DIR" -j"$(nproc)" --target bench_vm
  "$VM_BENCH_DIR"/bench_vm --docs=800 --reps=2 --json=BENCH_vm.json
  vm_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_vm.json; }
  VM_DISPATCHES="$(vm_field vm_dispatches)"
  VM_HANDOFFS="$(vm_field operator_handoffs_tree)"
  VM_ARENA_STEADY="$(vm_field arena_allocations_steady)"
  if [[ -z "$VM_DISPATCHES" || -z "$VM_HANDOFFS" || -z "$VM_ARENA_STEADY" ]]; then
    echo "ci.sh: BENCH_vm.json is missing counter fields" >&2
    exit 1
  fi
  if (( VM_DISPATCHES == 0 || VM_DISPATCHES >= VM_HANDOFFS )); then
    echo "ci.sh: fused chain paid $VM_DISPATCHES vm dispatches," \
         "not fewer than the operator tree's $VM_HANDOFFS hand-offs" >&2
    exit 1
  fi
  if (( VM_ARENA_STEADY != 0 )); then
    echo "ci.sh: steady-state drain grew the QueryArena" \
         "$VM_ARENA_STEADY times (expected zero)" >&2
    exit 1
  fi
  echo "vm gate: $VM_DISPATCHES vm dispatches vs $VM_HANDOFFS tree" \
       "hand-offs, arena steady growth $VM_ARENA_STEADY -- ok"
  echo "== ci.sh (vm): all green =="
  exit 0
fi

# ------------------------------------------------------------- --storage
# The paged-storage gate, in two halves. Correctness first: the
# deterministic pager/serde/zone-map/segment-store units, then the
# segment differential harness (tests/segment_diff_test.cc —
# segment-backed scans vs the in-memory extent vs the row-mode oracle
# across serial, morsel-parallel, shared-scan and VM drains, including
# under concurrent Submit writers replayed at each reader's pinned
# epoch) under ThreadSanitizer with three fixed seeds and one
# time-derived seed (echoed so any failure replays with --seed=N).
# Then performance, gated on deterministic counters rather than wall
# clock (CI is 1-core): bench_storage self-checks and
# BENCH_storage.json must show zone maps refuting segments on the
# selective workload (segments_skipped strictly positive) and the
# re-scan loop keeping the survivors resident in the deliberately
# small buffer cache (cache_hits strictly above cache_misses).
if [[ "$STORAGE" == "1" ]]; then
  : "${BUILD_DIR:=build-storage-tsan}"
  echo "== storage: TSan build of the storage unit + differential suites =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE=thread \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target storage_test segment_diff_test
  echo "== storage: deterministic pager + zone-map + segment units =="
  "$BUILD_DIR"/storage_test
  TIME_SEED="$(date +%s)"
  echo "== storage: differential seeds 1 2 3 $TIME_SEED (time-derived) =="
  for seed in 1 2 3 "$TIME_SEED"; do
    echo "-- segment_diff_test --seed=$seed"
    "$BUILD_DIR"/segment_diff_test --seed="$seed"
  done
  echo "== storage: bench_storage counter gate (plain build) =="
  STORAGE_BENCH_DIR=build
  cmake -B "$STORAGE_BENCH_DIR" -S . \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$STORAGE_BENCH_DIR" -j"$(nproc)" --target bench_storage
  "$STORAGE_BENCH_DIR"/bench_storage --docs=20000 --reps=4 --queries=3 \
                                     --cache-pages=16 \
                                     --rows-per-segment=8192 \
                                     --json=BENCH_storage.json
  storage_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_storage.json; }
  SEG_SCANNED="$(storage_field segments_scanned)"
  SEG_SKIPPED="$(storage_field segments_skipped)"
  CACHE_HITS="$(storage_field cache_hits)"
  CACHE_MISSES="$(storage_field cache_misses)"
  if [[ -z "$SEG_SCANNED" || -z "$SEG_SKIPPED" || \
        -z "$CACHE_HITS" || -z "$CACHE_MISSES" ]]; then
    echo "ci.sh: BENCH_storage.json is missing counter fields" >&2
    exit 1
  fi
  if (( SEG_SKIPPED == 0 || SEG_SCANNED == 0 )); then
    echo "ci.sh: selective workload scanned $SEG_SCANNED segments and" \
         "skipped $SEG_SKIPPED -- zone maps refuted nothing" >&2
    exit 1
  fi
  if (( CACHE_HITS <= CACHE_MISSES )); then
    echo "ci.sh: re-scan loop hit the buffer cache $CACHE_HITS times vs" \
         "$CACHE_MISSES misses -- survivors did not stay resident" >&2
    exit 1
  fi
  echo "storage gate: $SEG_SCANNED segments scanned / $SEG_SKIPPED" \
       "skipped, $CACHE_HITS cache hits vs $CACHE_MISSES misses -- ok"
  echo "== ci.sh (storage): all green =="
  exit 0
fi

# -------------------------------------------------------------- --service
# The query-service load harness as a standalone gate: build only
# bench_service, run K closed-loop socket clients against an in-process
# service (every reply is checked against the row-mode oracle's digest
# inside the harness), then gate the admission counters: arrivals must
# actually group into generations, and the shared generations must pay
# strictly fewer extent passes than the private baseline.
if [[ "$SERVICE" == "1" ]]; then
  : "${BUILD_DIR:=build}"
  echo "== service: build + load-harness smoke =="
  cmake -B "$BUILD_DIR" -S . \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_service
  "$BUILD_DIR"/bench_service --docs=200 --clients=8 --requests=25 \
                             --json=BENCH_service.json
  service_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_service.json; }
  SVC_QUERIES="$(service_field queries_shared)"
  SVC_GENERATIONS="$(service_field generations_shared)"
  SVC_EXT_SHARED="$(service_field extent_scans_shared)"
  SVC_EXT_PRIVATE="$(service_field extent_scans_private)"
  if [[ -z "$SVC_QUERIES" || -z "$SVC_GENERATIONS" || \
        -z "$SVC_EXT_SHARED" || -z "$SVC_EXT_PRIVATE" ]]; then
    echo "ci.sh: BENCH_service.json is missing counter fields" >&2
    exit 1
  fi
  if (( SVC_GENERATIONS >= SVC_QUERIES )); then
    echo "ci.sh: service formed $SVC_GENERATIONS generations for" \
         "$SVC_QUERIES queries -- arrivals are not being grouped" >&2
    exit 1
  fi
  if (( SVC_EXT_SHARED >= SVC_EXT_PRIVATE )); then
    echo "ci.sh: shared generations paid $SVC_EXT_SHARED extent passes," \
         "not fewer than the private baseline's $SVC_EXT_PRIVATE" >&2
    exit 1
  fi
  echo "service gate: $SVC_QUERIES queries in $SVC_GENERATIONS" \
       "generations, $SVC_EXT_SHARED vs $SVC_EXT_PRIVATE extent passes -- ok"
  echo "== ci.sh (service): all green =="
  exit 0
fi

echo "== docs check =="
# The executor book is a deliverable: a build that drops it (or unlinks
# it from the README) fails here, not in review.
if [[ ! -f docs/ARCHITECTURE.md ]]; then
  echo "ci.sh: docs/ARCHITECTURE.md is missing" >&2
  exit 1
fi
if [[ ! -f docs/BENCHMARKS.md ]]; then
  echo "ci.sh: docs/BENCHMARKS.md is missing" >&2
  exit 1
fi
if ! grep -q "docs/ARCHITECTURE.md" README.md; then
  echo "ci.sh: README.md does not link docs/ARCHITECTURE.md" >&2
  exit 1
fi
if ! grep -q "docs/BENCHMARKS.md" README.md; then
  echo "ci.sh: README.md does not link docs/BENCHMARKS.md" >&2
  exit 1
fi
# New executor subsystems must keep their book sections (ROADMAP's
# docs-upkeep rule): the selection-vector chapter with its operator
# contract table, and the BENCH_selvec field documentation.
if ! grep -q "^## Selection vectors" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Selection vectors' chapter" >&2
  exit 1
fi
if ! grep -q "operator-contract" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the operator-contract table" >&2
  exit 1
fi
if ! grep -q "BENCH_selvec.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_selvec.json" >&2
  exit 1
fi
# The shared-scan chapter (attach/detach protocol, exactly-once batch
# contract) and its bench record documentation.
if ! grep -q "^## Shared scans" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Shared scans' chapter" >&2
  exit 1
fi
if ! grep -q "BENCH_shared_scan.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_shared_scan.json" >&2
  exit 1
fi
# The static-analysis chapter (annotation conventions, the vodak lint's
# contracts, how to run --tidy/--lint/--ubsan locally).
if ! grep -q "^## Static analysis & concurrency contracts" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Static analysis &" \
       "concurrency contracts' chapter" >&2
  exit 1
fi
# The MVCC chapter (version-chain layout, the epoch pin/unpin
# protocol, cache keying, the reclaim rule) and its bench record.
if ! grep -q "^## Writes, epochs & snapshot isolation" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Writes, epochs & snapshot" \
       "isolation' chapter" >&2
  exit 1
fi
if ! grep -q "BENCH_mvcc.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_mvcc.json" >&2
  exit 1
fi
# The query-service chapter (wire protocol, generation state machine,
# cancellation points, the Run→Submit migration table) and the
# load-harness record documentation.
if ! grep -q "^## Query service & admission control" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Query service & admission" \
       "control' chapter" >&2
  exit 1
fi
if ! grep -q "BENCH_service.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_service.json" >&2
  exit 1
fi
# The compiled-execution chapter (opcode table, eligibility rule, arena
# lifetime, epoch contract) and the bench_vm record documentation.
if ! grep -q "^## Compiled execution" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Compiled execution' chapter" >&2
  exit 1
fi
if ! grep -q "BENCH_vm.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_vm.json" >&2
  exit 1
fi
# The paged-storage chapter (page file format, zone-map pruning rule,
# pin/epoch interaction with MVCC reclaim) and the bench_storage
# record documentation.
if ! grep -q "^## Paged storage & segment skipping" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Paged storage & segment" \
       "skipping' chapter" >&2
  exit 1
fi
if ! grep -q "BENCH_storage.json" docs/BENCHMARKS.md; then
  echo "ci.sh: docs/BENCHMARKS.md does not document BENCH_storage.json" >&2
  exit 1
fi

: "${BUILD_DIR:=build}"
echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD_DIR" -S . \
      ${THREAD_SAFETY_FLAG:+"$THREAD_SAFETY_FLAG"} \
      ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"}
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

if [[ "$SKIP_BENCH" == "1" ]]; then
  echo "== bench smoke skipped =="
  exit 0
fi

echo "== bench smoke (small N) =="
# Collect the built bench binaries up front: after a partial build the
# glob may match nothing, and that must fail the smoke loudly instead
# of silently running zero benches.
BENCHES=()
for bench in "$BUILD_DIR"/bench_*; do
  [[ -x "$bench" && ! -d "$bench" ]] && BENCHES+=("$bench")
done
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  echo "ci.sh: no bench_* binaries found in $BUILD_DIR/ (partial build?)" >&2
  exit 1
fi

# The batch-executor bench has its own flags; a tiny corpus suffices to
# prove it runs end to end. Its machine-readable outputs (scan+parallel,
# the method-ABI record and the selection-chain record) seed the perf
# trajectory (archived by the CI workflow); docs/BENCHMARKS.md documents
# each field by field.
"$BUILD_DIR"/bench_batch_exec --docs=200 --reps=2 \
                              --json=BENCH_parallel_exec.json \
                              --json-method=BENCH_method_batch.json \
                              --json-selvec=BENCH_selvec.json

# Selection-chain regression gate, as absolute bounds: the chain carries
# three columns (p, n, s), its filters mark survivors without moving
# them, and the drain boundary compacts each surviving row once — so at
# most 3 moves per hit. A filter that compacted would move the
# survivors of every predicate and fail it. The chain must also never
# regress to more copies than scanned rows (the copy-tax bar from the
# selection-vector PR). The record is flat one-field-per-line JSON, so
# plain grep/sed extraction is stable.
json_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_selvec.json; }
SEL_MOVES="$(json_field selvec_moves_total)"
SEL_HITS="$(json_field hits)"
SEL_ROWS="$(json_field paragraphs)"
if [[ -z "$SEL_MOVES" || -z "$SEL_HITS" || -z "$SEL_ROWS" ]]; then
  echo "ci.sh: BENCH_selvec.json is missing copy-counter fields" >&2
  exit 1
fi
if (( SEL_MOVES > 3 * SEL_HITS )); then
  echo "ci.sh: selection chain moved $SEL_MOVES values, more than" \
       "3 per surviving row ($SEL_HITS hits)" >&2
  exit 1
fi
if (( SEL_MOVES > SEL_ROWS )); then
  echo "ci.sh: selection chain moved $SEL_MOVES values for only" \
       "$SEL_ROWS scanned rows (copy tax regression)" >&2
  exit 1
fi
echo "selection-chain copy gate: $SEL_MOVES moves (bound 3 x $SEL_HITS hits," \
     "rows $SEL_ROWS) -- ok"

# Shared-scan gate: K concurrent queries attached to one shared scan
# must do strictly fewer extent passes than the same K queries with
# private cursors (~1x vs ~Kx), and at least halve the property reads
# (the column cache serves the batch from one snapshot).
"$BUILD_DIR"/bench_shared_scan --docs=200 --reps=2 \
                               --json=BENCH_shared_scan.json
shared_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_shared_scan.json; }
EXT_SHARED="$(shared_field extent_scans_shared)"
EXT_PRIVATE="$(shared_field extent_scans_private)"
PROP_SHARED="$(shared_field property_reads_shared)"
PROP_PRIVATE="$(shared_field property_reads_private)"
if [[ -z "$EXT_SHARED" || -z "$EXT_PRIVATE" || -z "$PROP_SHARED" || -z "$PROP_PRIVATE" ]]; then
  echo "ci.sh: BENCH_shared_scan.json is missing counter fields" >&2
  exit 1
fi
if (( EXT_SHARED >= EXT_PRIVATE )); then
  echo "ci.sh: shared scan paid $EXT_SHARED extent passes," \
       "not fewer than the $EXT_PRIVATE of K independent queries" >&2
  exit 1
fi
if (( PROP_SHARED * 2 > PROP_PRIVATE )); then
  echo "ci.sh: shared scan read $PROP_SHARED property values," \
       "not at most half the private baseline's $PROP_PRIVATE" >&2
  exit 1
fi
echo "shared-scan gate: $EXT_SHARED extent pass(es) vs $EXT_PRIVATE," \
     "$PROP_SHARED property reads vs $PROP_PRIVATE -- ok"

# MVCC gate: under the mixed closed loop every read must have pinned a
# snapshot, every committed write batch must have created copy-on-write
# versions, and the reclaimer must have actually freed superseded
# versions behind the moving pin horizon.
"$BUILD_DIR"/bench_mvcc --objects=2000 --clients=4 --ops=100 \
                        --json=BENCH_mvcc.json
mvcc_field() { sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" BENCH_mvcc.json; }
MVCC_READS="$(mvcc_field reads_completed)"
MVCC_WRITES="$(mvcc_field writes_committed)"
MVCC_SNAP="$(mvcc_field snapshot_reads)"
MVCC_CREATED="$(mvcc_field versions_created)"
MVCC_RECLAIMED="$(mvcc_field versions_reclaimed)"
MVCC_EPOCHS="$(mvcc_field epochs_committed)"
if [[ -z "$MVCC_READS" || -z "$MVCC_WRITES" || -z "$MVCC_SNAP" || \
      -z "$MVCC_CREATED" || -z "$MVCC_RECLAIMED" || -z "$MVCC_EPOCHS" ]]; then
  echo "ci.sh: BENCH_mvcc.json is missing counter fields" >&2
  exit 1
fi
if (( MVCC_SNAP < MVCC_READS )); then
  echo "ci.sh: only $MVCC_SNAP snapshot reads for $MVCC_READS completed" \
       "reads -- readers are not pinning epoch snapshots" >&2
  exit 1
fi
if (( MVCC_WRITES > 0 && (MVCC_CREATED == 0 || MVCC_EPOCHS == 0) )); then
  echo "ci.sh: $MVCC_WRITES write batches committed but versions_created" \
       "=$MVCC_CREATED, epochs_committed=$MVCC_EPOCHS" >&2
  exit 1
fi
if (( MVCC_CREATED > 0 && MVCC_RECLAIMED == 0 )); then
  echo "ci.sh: $MVCC_CREATED versions created but none reclaimed --" \
       "the reclaimer never freed behind the pin horizon" >&2
  exit 1
fi
echo "mvcc gate: $MVCC_SNAP snapshot reads / $MVCC_READS reads," \
     "$MVCC_CREATED versions created, $MVCC_RECLAIMED reclaimed -- ok"

# Google-benchmark binaries: run only the smallest Arg() variant of each
# benchmark (plus arg-less ones) with a minimal measuring time.
SMOKE_FILTER='(/(1|2|10|20|50)$|^[^/]+$)'
for bench in "${BENCHES[@]}"; do
  [[ "$(basename "$bench")" == "bench_batch_exec" ]] && continue
  [[ "$(basename "$bench")" == "bench_shared_scan" ]] && continue
  # bench_service has its own flags and gate (ci.sh --service).
  [[ "$(basename "$bench")" == "bench_service" ]] && continue
  [[ "$(basename "$bench")" == "bench_mvcc" ]] && continue
  # bench_vm has its own flags and gate (ci.sh --vm).
  [[ "$(basename "$bench")" == "bench_vm" ]] && continue
  # bench_storage has its own flags and gate (ci.sh --storage).
  [[ "$(basename "$bench")" == "bench_storage" ]] && continue
  echo "-- $bench"
  "$bench" --benchmark_filter="$SMOKE_FILTER" --benchmark_min_time=0.01
done

echo "== ci.sh: all green =="
