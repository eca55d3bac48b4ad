/**
 * @file
 * The batched-environment engines.
 *
 * Two engines implement the Monte-Carlo rollouts of the cem, mpc and bo
 * kernels and the pfl motion update (DESIGN.md "Batched
 * environments"); pfl's beam sensor model has the scalar loop only:
 *
 *   soa     structure-of-arrays batch: one contiguous array per state
 *           component, simd::VecD lanes advancing kWidth environments
 *           per instruction (the default);
 *   scalar  one environment at a time — the preserved reference path.
 *
 * Both produce bitwise-identical rewards, traces, states and particle
 * poses at every environment count and thread count, so the switch is
 * a pure performance A/B: kernels expose it as --batch {soa,scalar},
 * and config structs and call sites name the engine explicitly (soa
 * unless told otherwise). BatchKernels.CrossEngineOutputsIdentical and
 * the other Batch* suites keep the scalar reference green.
 */

#ifndef RTR_UTIL_BATCH_ENGINE_H
#define RTR_UTIL_BATCH_ENGINE_H

#include <string_view>

namespace rtr {

/** Which engine runs batched environment rollouts. */
enum class BatchEngine
{
    Soa,    ///< SIMD-across-environments SoA batch (the default).
    Scalar, ///< One environment at a time (preserved reference).
};

/** Display name ("soa" / "scalar"). */
inline const char *
batchEngineName(BatchEngine engine)
{
    return engine == BatchEngine::Soa ? "soa" : "scalar";
}

/** Parse an engine name; returns false on anything else. */
inline bool
parseBatchEngine(std::string_view name, BatchEngine &out)
{
    if (name == "soa") {
        out = BatchEngine::Soa;
        return true;
    }
    if (name == "scalar") {
        out = BatchEngine::Scalar;
        return true;
    }
    return false;
}

} // namespace rtr

#endif // RTR_UTIL_BATCH_ENGINE_H
