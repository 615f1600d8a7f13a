#!/usr/bin/env bash
# Pre-merge gate: the tier-1 test suite three ways.
#
#   scripts/check.sh          # plain + asan + tsan
#   scripts/check.sh plain    # any subset, in order: plain|asan|tsan|lint
#
# 1. plain — full ctest in build/ (every suite: unit, obs, oracle,
#    analysis, fault, vm, explain, mvcc), exactly the ROADMAP.md tier-1
#    command,
#    plus a metrics-name lint (every registered metric is uv.<subsystem>.*),
#    a ~30-second crash-point sweep (fuzz_whatif --crash-points): simulated
#    crashes at every reachable failpoint with WAL recovery checked
#    against the pre/post what-if states (DESIGN.md §11), a short
#    cross-engine differential leg (fuzz_whatif --exec-diff): fuzzed
#    histories built + what-if-replayed on the tree walker and the
#    bytecode VM with final states diffed (DESIGN.md §12), and an
#    explain-soundness leg (fuzz_whatif --check-explain): every pruned
#    transaction's stated reason re-validated against a forced-replay
#    counterfactual (DESIGN.md §13), and a concurrent what-if smoke
#    (fuzz_whatif --concurrent): analyst threads running snapshot-pinned
#    what-ifs against a per-snapshot full-naive oracle while writer
#    threads commit (DESIGN.md §14), a multi-client server differential
#    gate (fuzz_whatif --server-fuzz): client processes hammering one
#    server process over the framed TCP protocol with a mid-run SIGTERM
#    drain and WAL-recovery fingerprint check, and a ~30-second wire
#    crash sweep (fuzz_whatif --server-crash) arming failpoints on every
#    wire-path edge (DESIGN.md §16).
# 2. asan  — AddressSanitizer build running the observability + oracle +
#    fault + vm + explain + mvcc + server labels (the suites that exercise
#    replay/staging over shared CoW snapshots, WAL recovery,
#    compiled-execution, provenance, and network paths).
# 3. tsan  — same labels under ThreadSanitizer, plus the concurrent
#    what-if smoke (the MVCC layer's race detector) and the multi-client
#    server smoke + wire crash sweep (the dispatcher/worker-pool race
#    detector).
# lint (clang-tidy; no-op without the binary) runs with `lint`, or via
# `ctest -L lint` inside any configured build.
#
# Sanitizer builds live in build-asan/ and build-tsan/ so they never
# disturb the primary build/ tree. Everything is incremental after the
# first run.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
JOBS="${JOBS:-$(nproc)}"
STEPS="${*:-plain asan tsan}"

run_metrics_lint() {
  echo "== plain: metrics-name lint (uv.<subsystem>.<name>) =="
  # Every literal metric registration in shipped code must carry the uv.
  # prefix. Dynamically concatenated names (no literal after the paren)
  # and test-local registrations are exempt.
  if grep -rnE '(counter|gauge|histogram)\("([^u]|u[^v]|uv[^.])' \
      --include='*.cc' --include='*.h' src tools bench; then
    echo "metrics-name lint: found registrations without the uv. prefix" >&2
    return 1
  fi
  return 0
}

run_plain() {
  echo "== plain: full tier-1 suite =="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
  run_metrics_lint
  echo "== plain: crash-point sweep smoke (~30s) =="
  SWEEP_DIR="$(mktemp -d)"
  build/tools/fuzz_whatif --crash-points --seed 1 --histories 0 \
    --fuzz-seconds 30 --out-dir "$SWEEP_DIR"
  test -f "$SWEEP_DIR/flight_recorder.json" \
    || { echo "crash sweep left no flight-recorder dump" >&2; exit 1; }
  echo "== plain: cross-engine exec-diff smoke =="
  build/tools/fuzz_whatif --exec-diff --seed 1 --histories 40 \
    --out-dir "$SWEEP_DIR"
  echo "== plain: explain-soundness smoke =="
  build/tools/fuzz_whatif --check-explain --seed 1 --histories 60 \
    --out-dir "$SWEEP_DIR"
  echo "== plain: predicate-region containment smoke (DESIGN.md §15) =="
  build/tools/fuzz_whatif --check-predicates --seed 1 --histories 200 \
    --out-dir "$SWEEP_DIR"
  echo "== plain: concurrent what-if smoke (MVCC, DESIGN.md §14) =="
  build/tools/fuzz_whatif --concurrent --seed 1 --rounds 3
  echo "== plain: multi-client server differential gate (DESIGN.md §16) =="
  # N client processes hammer one server process over the wire (commits,
  # analyzes, publishes with retries, mid-run SIGTERM drain); same-epoch
  # selective/full-naive fingerprints must match and WAL recovery must
  # reproduce the drain fingerprint.
  (cd "$SWEEP_DIR" && "$ROOT"/build/tools/fuzz_whatif --server-fuzz --seed 7)
  echo "== plain: wire crash sweep (~30s, DESIGN.md §16) =="
  # Crash/error/delay actions at every wire-path edge (torn frames, partial
  # writes, accept storms, read stalls, fsync failure, crash-before-
  # response); recovery must stay divergence-free through all of it.
  (cd "$SWEEP_DIR" && \
    "$ROOT"/build/tools/fuzz_whatif --server-crash --seed 1 --fuzz-seconds 30)
  rm -rf "$SWEEP_DIR"
}

run_sanitized() {  # $1 = address|thread, $2 = build dir
  echo "== $1 sanitizer: obs+oracle+fault+vm+explain+mvcc+predicate+server =="
  cmake -B "$2" -S . -DULTRA_SANITIZE="$1"
  cmake --build "$2" -j "$JOBS"
  ctest --test-dir "$2" --output-on-failure -j "$JOBS" \
    -L 'obs|oracle|fault|vm|explain|mvcc|predicate|server'
  if [ "$1" = thread ]; then
    # The concurrent analyst-vs-writer fuzz is the MVCC layer's real race
    # detector: N what-if analyses against shared snapshots while writers
    # commit. It must be data-race-free AND divergence-free under TSan.
    echo "== thread sanitizer: concurrent what-if smoke =="
    "$2"/tools/fuzz_whatif --concurrent --seed 1 --rounds 2
    # The server's epoll dispatcher + worker pool + per-session write locks
    # are the other threaded surface: a multi-client smoke and a short wire
    # crash sweep must both be race-free. (The harness forks the server
    # child from a single-threaded parent, so TSan stays accurate.)
    echo "== thread sanitizer: multi-client server smoke =="
    SRV_DIR="$(mktemp -d)"
    (cd "$SRV_DIR" && "$ROOT/$2"/tools/fuzz_whatif --server-fuzz --seed 7 \
      --clients 4)
    echo "== thread sanitizer: wire crash sweep (~30s) =="
    (cd "$SRV_DIR" && "$ROOT/$2"/tools/fuzz_whatif --server-crash --seed 1 \
      --fuzz-seconds 30)
    rm -rf "$SRV_DIR"
  fi
}

for step in $STEPS; do
  case "$step" in
    plain) run_plain ;;
    asan)  run_sanitized address build-asan ;;
    tsan)  run_sanitized thread build-tsan ;;
    lint)  scripts/run_clang_tidy.sh build ;;
    *) echo "unknown step '$step' (plain|asan|tsan|lint)" >&2; exit 2 ;;
  esac
done
echo "check.sh: all steps passed ($STEPS)"
