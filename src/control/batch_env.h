/**
 * @file
 * Batched environments for the control-stage Monte-Carlo kernels
 * (DESIGN.md "Batched environments").
 *
 * The cem, mpc and bo kernels all simulate many *independent*
 * environments whose per-step dynamics form an irreducibly serial
 * dependency chain. The batch engine runs kWidth environments in
 * lockstep instead: state lives in structure-of-arrays form (one
 * contiguous array per state component), and each model step advances
 * one simd::VecD lane of environments per instruction. Transcendental
 * calls (cos/sin/exp/log and normalizeAngle's fmod) stay scalar libm
 * calls per lane element — only the pure arithmetic chain vectorizes —
 * which is exactly what keeps the soa engine bitwise-identical to the
 * preserved scalar reference (util/batch_engine.h):
 *
 *  - every VecD op is one IEEE-754 double op per lane, never an FMA;
 *  - each environment's accumulations happen in the reference order;
 *  - expression shapes mirror the scalar source parenthesization;
 *  - branches vectorize as select(cmpGT(...)) blends of the untouched
 *    accumulator, never as arithmetic with masked zeros.
 *
 * Batches with a non-multiple-of-kWidth remainder finish on the scalar
 * reference path, so every environment count is exact by construction.
 */

#ifndef RTR_CONTROL_BATCH_ENV_H
#define RTR_CONTROL_BATCH_ENV_H

#include <cstddef>
#include <vector>

#include "control/ball_throw.h"
#include "control/cem.h"
#include "control/mpc.h"
#include "util/batch_engine.h"

namespace rtr {

// ---------------------------------------------------------------------
// Ball-throw batch (cem / bo reward + 32-sample flight trace)
// ---------------------------------------------------------------------

/**
 * Evaluate @p count throws with parameters in SoA form (theta1[i],
 * theta2[i], speed[i]). rewards[i] receives env.evaluate()'s value;
 * when @p traces is non-null, traces[i*64 .. i*64+63] receives
 * env.flightTrace()'s 32 (x, y) pairs. Both engines are bitwise
 * identical per environment.
 */
void evaluateThrowBatch(const BallThrowEnv &env, const double *theta1,
                        const double *theta2, const double *speed,
                        std::size_t count, double *rewards,
                        double *traces, BatchEngine engine);

/**
 * CemSampleEvaluator over BallThrowEnv: each chunk of samples the
 * optimizer hands over becomes one SoA batch (soa engine), or is
 * scored one call to env.evaluate()/flightTrace() at a time (scalar
 * engine, the preserved reference).
 */
class ThrowSampleEvaluator final : public CemSampleEvaluator
{
  public:
    ThrowSampleEvaluator(const BallThrowEnv &env, bool with_trace,
                         BatchEngine engine = BatchEngine::Soa)
        : env_(env), with_trace_(with_trace), engine_(engine)
    {
    }

    void evaluate(CemSample *samples, std::size_t count) const override;

    BatchEngine engine() const { return engine_; }

  private:
    const BallThrowEnv &env_;
    bool with_trace_;
    BatchEngine engine_;
};

// ---------------------------------------------------------------------
// Unicycle MPC batch (forward simulation + rollout cost + gradient)
// ---------------------------------------------------------------------

/** SoA state of @c size() unicycle environments advanced in lockstep. */
struct UnicycleBatch
{
    std::vector<double> x;
    std::vector<double> y;
    std::vector<double> theta;
    std::vector<double> v;

    /** Reset to @p count copies of @p state. */
    void assign(std::size_t count, const UnicycleState &state);

    std::size_t size() const { return x.size(); }
};

/**
 * Advance every environment one model step with per-env controls
 * (MpcController::step applied element-wise). Bitwise identical under
 * both engines.
 */
void stepUnicycleBatch(UnicycleBatch &state, const double *v_cmd,
                       const double *omega_cmd, double dt,
                       BatchEngine engine);

/**
 * MpcController's horizon cost as a free function — the preserved
 * scalar reference the batched rollouts are verified against.
 */
double unicycleRolloutCost(const MpcConfig &config,
                           const UnicycleState &start,
                           const std::vector<Vec2> &reference,
                           const std::vector<double> &v,
                           const std::vector<double> &omega);

/**
 * Horizon rollout cost for @p count environments in lockstep: env e
 * starts at starts[e] and applies controls v[k*count+e],
 * omega[k*count+e] (step-major SoA). costs[e] is bitwise
 * unicycleRolloutCost() for that environment under both engines.
 */
void unicycleRolloutCostBatch(const MpcConfig &config,
                              const UnicycleState *starts,
                              const std::vector<Vec2> &reference,
                              const double *v, const double *omega,
                              std::size_t horizon, std::size_t count,
                              double *costs, BatchEngine engine);

/**
 * Central-difference gradient of the rollout cost over the control
 * sequence — the inner loop of MpcController::solve. Under the soa
 * engine the four perturbed rollouts of each horizon coordinate
 * (v+eps, v-eps, omega+eps, omega-eps) run as one four-environment SoA
 * batch; the scalar engine evaluates them one rolloutCost call at a
 * time (the preserved reference). Chunks of coordinates run on the
 * parallel runtime either way; the gradient is bitwise identical at
 * every thread count under both engines.
 */
void mpcCentralDiffGradient(const MpcConfig &config,
                            const UnicycleState &start,
                            const std::vector<Vec2> &reference,
                            const std::vector<double> &v,
                            const std::vector<double> &omega,
                            double fd_eps, std::vector<double> &grad_v,
                            std::vector<double> &grad_omega);

} // namespace rtr

#endif // RTR_CONTROL_BATCH_ENV_H
