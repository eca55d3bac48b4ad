/**
 * @file
 * Runtime selection of the batched-environment engine.
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
 * a pure performance A/B: kernels expose it as --batch {soa,scalar} in
 * the same style as --nn/--raycast/--simd, and the RTR_BATCH_ENGINE
 * environment variable flips the default so the full test suite can run
 * against either engine (scripts/check.sh "batch-scalar" leg).
 */

#ifndef RTR_UTIL_BATCH_ENGINE_H
#define RTR_UTIL_BATCH_ENGINE_H

#include <string_view>

#include "util/env_engine.h"

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

/**
 * Process-wide default engine: soa, unless RTR_BATCH_ENGINE=scalar is
 * set in the environment (read once; an unknown value exits with
 * status 2, see util/env_engine.h). Config structs capture this default
 * at construction; explicit --batch flags override it per run.
 */
inline BatchEngine
defaultBatchEngine()
{
    static const BatchEngine def = engineFromEnv(
        "RTR_BATCH_ENGINE", BatchEngine::Soa, parseBatchEngine,
        "soa or scalar");
    return def;
}

} // namespace rtr

#endif // RTR_UTIL_BATCH_ENGINE_H
