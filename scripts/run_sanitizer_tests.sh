#!/bin/sh
# Builds openSAGE under one sanitizer flavor and runs the suites that
# flavor is for; the per-flavor build flags, targets, env vars, and
# ctest filters all live here.
#
#   asan  -- AddressSanitizer + LeakSanitizer: the memory-heavy suites
#            (buffer-pool reuse across warm runs, striping copies, the
#            fault-injection frame path, program blob round-trips, the
#            per-node memory planner's arena layouts). The
#            LSan suppressions cover a pre-existing bounded leak: the
#            Alter interpreter's environment<->closure shared_ptr cycle.
#            All three flavors also run the Alter bytecode pipeline
#            suites (reader/compiler/VM, script differentials, codegen
#            goldens): the VM manages frame/chunk shared_ptr graphs and
#            a manually indexed value stack -- exactly what sanitizers
#            are for. ASan also runs the ISSPL FFT and transpose suites:
#            their two-complex vector loads and stores must stay inside
#            each line and matrix, including odd transpose shapes.
#   tsan  -- ThreadSanitizer: the concurrency-heavy suites (emulated
#            machine dispatch handshake, fabric, MPI layer, the
#            executor/session execution paths, the streaming executor --
#            overlapped tickets on one machine epoch with credit flow
#            control -- multi-session sharing of one CompiledProgram,
#            the metrics registries -- the Server's, written under its
#            mutex, and each Session's, written on its host thread
#            during collection -- the serve::Server fleet: caller
#            threads racing admission and quota accounting against
#            worker threads realizing coalesced streaming tickets --
#            the shmem transport's sender/drain threads around the
#            forked node processes' rings, and the online tuner
#            hot-swapping programs against a host thread blocked in
#            wait()).
#   ubsan -- UndefinedBehaviorSanitizer: the arithmetic-heavy paths
#            (compiled transfer programs and their serialized form,
#            striping/run-intersection math, FFT permutation and twiddle
#            indexing, the 2x2-tile transpose's index math, fault frame
#            packing). UBSan composes with ASan; set
#            SAGE_EXTRA_CMAKE_FLAGS=-DSAGE_ASAN=ON for the combined build.
#
# Usage: scripts/run_sanitizer_tests.sh <asan|tsan|ubsan> [build-dir]
set -eu

flavor=${1:-}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

case "$flavor" in
  asan)
    cmake_flag=-DSAGE_ASAN=ON
    targets="net_test session_test streaming_test striping_test fault_test \
      integration_pipeline_test viz_test metrics_test program_test \
      random_graph_test memory_plan_test serve_test transport_test \
      tuner_test alter_test alter_script_test codegen_test \
      codegen_golden_test isspl_test"
    filter='(Fabric|Session|StepOrder|DataPlane|Streaming|Striping|Redistribution|Fault|Degraded|Pipeline|Registry|Metrics|Trace|Analysis|Export|Program|PlanCache|MemoryPlan|RandomChain|Diamond|Serve|Transport|Shmem|Tuner|Alter|Reader|Eval|Builtin|Emit|Vm|Codegen|Fft|Transpose)'
    ;;
  tsan)
    cmake_flag=-DSAGE_TSAN=ON
    targets="net_test mpi_test executor_test session_test streaming_test \
      fault_test viz_test metrics_test program_test random_graph_test \
      memory_plan_test serve_test transport_test tuner_test \
      alter_test alter_script_test codegen_test codegen_golden_test"
    filter='(Machine|Fabric|Mpi|Executor|Session|StepOrder|DataPlane|Streaming|Registry|Redistribution|WarmCold|Fault|Degraded|Metrics|Trace|Analysis|Export|Program|PlanCache|MemoryPlan|RandomChain|Diamond|Serve|Transport|Shmem|Tuner|Alter|Reader|Eval|Builtin|Emit|Vm|Codegen)'
    ;;
  ubsan)
    cmake_flag=-DSAGE_UBSAN=ON
    targets="net_test session_test streaming_test striping_test fault_test \
      integration_pipeline_test isspl_test registry_test metrics_test \
      program_test random_graph_test memory_plan_test serve_test \
      transport_test tuner_test alter_test alter_script_test codegen_test \
      codegen_golden_test"
    filter='(Fabric|Session|StepOrder|DataPlane|Streaming|Striping|Redistribution|Fault|Degraded|Pipeline|Fft|Transpose|Kernel|Registry|Plan|Metrics|Program|PlanCache|RandomChain|Diamond|Serve|Transport|Shmem|Tuner|Alter|Reader|Eval|Builtin|Emit|Vm|Codegen)'
    ;;
  *)
    echo "usage: $0 <asan|tsan|ubsan> [build-dir]" >&2
    exit 2
    ;;
esac

build_dir=${2:-"$repo_root/build-$flavor"}

# shellcheck disable=SC2086  # SAGE_EXTRA_CMAKE_FLAGS is a flag list
cmake -B "$build_dir" -S "$repo_root" "$cmake_flag" \
  ${SAGE_EXTRA_CMAKE_FLAGS:-}
# shellcheck disable=SC2086  # targets is a word list
cmake --build "$build_dir" -j --target $targets
cd "$build_dir"

case "$flavor" in
  asan)
    ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1} \
    LSAN_OPTIONS=${LSAN_OPTIONS:-"suppressions=$repo_root/scripts/lsan_suppressions.txt"} \
      ctest --output-on-failure -R "$filter"
    ;;
  tsan)
    TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
      ctest --output-on-failure -R "$filter"
    ;;
  ubsan)
    UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1} \
      ctest --output-on-failure -R "$filter"
    ;;
esac
