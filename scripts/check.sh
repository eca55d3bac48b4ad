#!/usr/bin/env bash
# Local CI: build + ctest across the sanitizer matrix.
#
#   scripts/check.sh              # release asan ubsan tsan scalar service
#   scripts/check.sh release asan # just those variants
#
# Each variant uses its own build tree (build-check-<variant>) so the
# trees stay warm across runs. TSan runs the thread-focused suites
# (Parallel/Telemetry/Service/Mpmc, plus CastScan: castScanBatch is
# the pfl ray path under parallelForChunks; "Parallel" also matches
# LinalgSimd.ParallelScalarAndSimdCallersAgreeBitwise,
# IcpPlaneTarget.ParallelOnDemandNormalsMatchEagerBitwise and
# SceneRec.ParallelNormalCountsAreThreadInvariant) — the full
# suite under TSan is slow and the remaining tests are single-threaded
# by construction. The scalar
# variant builds with -DRTR_FORCE_SCALAR_SIMD=ON so the portable
# fallback of rtr::simd::VecD (the code path non-x86/ARM hosts compile)
# stays green. Engine choice is an explicit argument, not process
# state, so no variant reruns the suite under another engine: the
# reference engines stay green in every variant through their
# cross-engine suites (SearchFlatFuzz and the service replay for graph
# search, Batch* for rollouts, KdTree/DynKdTreeDims/BucketFuzzDims/
# BucketKdTree for nearest neighbors, LinalgSimd for dense linear
# algebra). The service variant smokes
# the planning-as-a-service runtime end to end: the service/MPMC test
# suites plus a bench_service run (its determinism replay exits 2 on
# any divergence) in both the Release and TSan trees.

set -euo pipefail
cd "$(dirname "$0")/.."

variants=("$@")
if [ ${#variants[@]} -eq 0 ]; then
    variants=(release asan ubsan tsan scalar service)
fi

jobs=$(nproc 2>/dev/null || echo 4)

for variant in "${variants[@]}"; do
    if [ "${variant}" = "service" ]; then
        for mode in release tsan; do
            sdir="build-check-${mode}"
            scmake=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
            [ "${mode}" = "tsan" ] && scmake+=(-DRTR_TSAN=ON)
            echo "==== service: configure + build (${sdir}) ===="
            cmake -B "${sdir}" -S . "${scmake[@]}" > /dev/null
            cmake --build "${sdir}" -j "${jobs}"
            echo "==== service: ctest (${mode}) ===="
            ctest --test-dir "${sdir}" --output-on-failure -j "${jobs}" \
                -R 'Service|Mpmc'
            echo "==== service: bench_service smoke (${mode}) ===="
            "${sdir}/bench/bench_service" --requests 2000 \
                --json "${sdir}/BENCH_service_smoke.json"
        done
        continue
    fi

    dir="build-check-${variant}"
    cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
    test_args=(--output-on-failure -j "${jobs}")
    case "${variant}" in
      release) ;;
      asan)  cmake_args+=(-DRTR_ASAN=ON) ;;
      ubsan) cmake_args+=(-DRTR_UBSAN=ON) ;;
      tsan)  cmake_args+=(-DRTR_TSAN=ON)
             test_args+=(-R 'Parallel|Telemetry|Service|Mpmc|CastScan') ;;
      scalar) cmake_args+=(-DRTR_FORCE_SCALAR_SIMD=ON) ;;
      *) echo "unknown variant '${variant}'" >&2; exit 2 ;;
    esac

    echo "==== ${variant}: configure + build (${dir}) ===="
    cmake -B "${dir}" -S . "${cmake_args[@]}" > /dev/null
    cmake --build "${dir}" -j "${jobs}"

    echo "==== ${variant}: ctest ===="
    ctest --test-dir "${dir}" "${test_args[@]}"
done

echo "==== all variants passed: ${variants[*]} ===="
