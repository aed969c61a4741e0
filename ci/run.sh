#!/usr/bin/env bash
# Tier-1 CI entry point.  Usage:
#
#   ci/run.sh            # plain RelWithDebInfo build + full test suite
#   ci/run.sh sanitize   # AddressSanitizer build, tests under OHA_THREADS=4
#   ci/run.sh tsan       # ThreadSanitizer build, tests under OHA_THREADS=4
#   ci/run.sh ubsan      # UndefinedBehaviorSanitizer build, tests under
#                        # OHA_THREADS=4; the first report fails the job
#   ci/run.sh bench      # build + run the wall-time microbenchmarks,
#                        # leaving BENCH_*.json in the repo root
#   ci/run.sh bench-release
#                        # Release (-O2, no asserts) build + smoke run of
#                        # the static-phase microbenchmark
#                        # (OHA_BENCH_SMOKE=1: reduced reps and corpus),
#                        # the component probes (plain and profiled
#                        # interpreter ns/step, OptFT's fused first
#                        # round, recovery, static slicing), then the
#                        # repository benchmark's own checks
#                        # (perfbench/test.py)
#   ci/run.sh faults     # fault-injection sweep: the misspeculation
#                        # recovery tests, the union-graph oracle
#                        # (GiriUnion) and the live attachment groups
#                        # (LiveGroups) under OHA_FAULT_SEED 1..3,
#                        # each at OHA_THREADS=1 and 4 (seeded faults
#                        # must repair identically at any thread count),
#                        # then the I/O fault domain — durable-file
#                        # and snapshot fault sweeps, corruption
#                        # fuzzing and the kill-at-any-write-point
#                        # crash-recovery sweep — at both thread counts
#   ci/run.sh service    # ThreadSanitizer build of the analysis-daemon
#                        # stack: the service/shared-cache test suite,
#                        # then a smoke run of the service_throughput
#                        # bench (parity + hit-rate + latency bars),
#                        # leaving BENCH_service_throughput.json
#
# All test jobs run the same ctest suite; the sanitizer jobs exist to
# catch memory errors, data races and undefined behavior in the
# parallel static-phase and run-batching paths, so they force
# several batch worker threads.
set -euo pipefail
cd "$(dirname "$0")/.."

job="${1:-plain}"
jobs="$(nproc 2>/dev/null || echo 4)"

case "$job" in
plain)
    build_dir=build-ci
    # -Werror: a new compiler warning fails the tier-1 job.
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-Werror
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
    ;;
sanitize)
    build_dir=build-ci-asan
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DOHA_SANITIZE=address
    cmake --build "$build_dir" -j "$jobs"
    OHA_THREADS=4 ctest --test-dir "$build_dir" --output-on-failure \
        -j "$jobs"
    ;;
tsan)
    build_dir=build-ci-tsan
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DOHA_SANITIZE=thread
    cmake --build "$build_dir" -j "$jobs"
    OHA_THREADS=4 ctest --test-dir "$build_dir" --output-on-failure \
        -j "$jobs"
    ;;
ubsan)
    build_dir=build-ci-ubsan
    # OHA_SANITIZE=undefined builds with -fno-sanitize-recover, so the
    # first report aborts the test process and fails the job.
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DOHA_SANITIZE=undefined
    cmake --build "$build_dir" -j "$jobs"
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 OHA_THREADS=4 \
        ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
    ;;
bench)
    build_dir=build-ci
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build_dir" -j "$jobs" --target \
        microbench_static microbench_shadow
    "$build_dir"/bench/microbench_static
    "$build_dir"/bench/microbench_shadow
    ;;
bench-release)
    build_dir=build-ci-release
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build_dir" -j "$jobs" --target \
        microbench_static microbench_components
    # Static-phase smoke: solver and static-phase series at the
    # pipeline's context and slice-work budgets.  The workflow uploads
    # BENCH_microbench_static.json.
    OHA_BENCH_SMOKE=1 "$build_dir"/bench/microbench_static
    # Interpreter floor: plain and profiled runs over every race
    # (slice:0) and slice (slice:1) workload's inputs, items = steps,
    # so the profiled/plain ns/step ratio is tracked.  OptFT's fused
    # first round (hybrid and optimistic + checker groups) over every
    # race program's testing inputs in one live run each, items =
    # steps.  Recovery: warm, serial, fault-seeded OptFT (slice:0) and
    # OptSlice (slice:1) over every program, items = ops.  The static
    # slicer: build it and slice every Output of each slice program
    # over CS points-to, items = slices.  Leaves
    # BENCH_microbench_components.json.
    "$build_dir"/bench/microbench_components \
        --benchmark_filter='InterpreterPlain|ProfilingRun|FusedFirstRound|FaultedPipeline|StaticSlice'
    # The repository benchmark's own checks: its reference digests
    # still match, and every workload's traced run passes and repeats
    # its exact counts — so the pipelines' live path is held to the
    # reference digests.
    python3 perfbench/test.py
    ;;
faults)
    build_dir=build-ci
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build_dir" -j "$jobs"
    for seed in 1 2 3; do
        for threads in 1 4; do
            echo "=== fault sweep: OHA_FAULT_SEED=$seed" \
                "OHA_THREADS=$threads ==="
            OHA_FAULT_SEED="$seed" OHA_THREADS="$threads" \
                ctest --test-dir "$build_dir" --output-on-failure \
                -R 'FaultInjection|FaultInjector|AdaptiveRecovery|Violation|GiriUnion|LiveGroups'
        done
    done
    # I/O fault domain: every durable-file and snapshot test injects
    # open/write/fsync/rename failures, fuzzes on-disk bytes, and
    # (Snapshot) kills a child process at every write point.
    # Determinism bar: the sweep must pass identically single- and
    # multi-threaded.
    for threads in 1 4; do
        echo "=== I/O fault sweep: OHA_THREADS=$threads ==="
        OHA_THREADS="$threads" \
            ctest --test-dir "$build_dir" --output-on-failure \
            -R 'DurableFile|Snapshot'
    done
    ;;
service)
    build_dir=build-ci-tsan
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DOHA_SANITIZE=thread
    cmake --build "$build_dir" -j "$jobs"
    # The concurrent pieces of the daemon under TSan: the request
    # queue, the service itself, the shared cross-request cache
    # (including the torture test), and the live attachment groups run
    # concurrently from worker threads.  RunBatch covers the batch
    # primitive every parallel stage uses.
    # Snapshot covers the durability layer under TSan as well: the
    # boot-time warm start, the periodic snapshot writer racing request
    # shards (PeriodicSnapshotPublishesWhileRequestsRun), the final
    # snapshot at shutdown, and the crash-recovery sweep.  FaultInjector and
    # Profiler cover the profiling observer and the fault injector,
    # which reads and fills the shared observation cache from request
    # shards.
    OHA_THREADS=4 ctest --test-dir "$build_dir" --output-on-failure \
        -R 'RequestQueue|AnalysisService|LruList|SharedCache|ConfiguredThreads|LiveGroups|EnvSizeBytes|RunBatch|Snapshot|FaultInjector|Profiler'
    # Smoke throughput run; the binary exits non-zero if the parity,
    # warm-hit-rate, warm-latency, or restart-warm acceptance bars
    # fail (the restart-warm series persists a snapshot, clears every
    # cache, and boots a fresh daemon from disk).
    OHA_BENCH_SMOKE=1 OHA_THREADS=4 "$build_dir"/bench/service_throughput
    ;;
*)
    echo "unknown job '$job' (expected: plain | sanitize | tsan | ubsan |" \
        "bench | bench-release | faults | service)" >&2
    exit 2
    ;;
esac
