/**
 * @file
 * Batched particle-filter models (DESIGN.md "Batched environments").
 *
 * Every particle of the pfl kernel is an independent environment: the
 * odometry motion model and the beam sensor model apply the same
 * arithmetic chain to each hypothesis. The motion model's batch engine
 * keeps particle state in structure-of-arrays form and advances one
 * simd::VecD lane of particles per instruction, under the same
 * bitwise-identity rules as control/batch_env.h: no FMA, expression
 * shapes mirroring the scalar source, and transcendentals (cos/sin,
 * normalizeAngle's fmod) staying scalar libm calls per lane element.
 * Stochastic draws are staged from the caller's stream in scalar order
 * *before* any lane work — the RNG staging contract — so the stream
 * position after a batched update equals the serial reference's.
 * Remainder particles (count % kWidth) finish on the scalar reference
 * path.
 */

#ifndef RTR_PERCEPTION_BATCH_PFL_H
#define RTR_PERCEPTION_BATCH_PFL_H

#include <cstddef>

#include "perception/particle_filter.h"

namespace rtr {

/**
 * Scalar reference of the odometry motion model over pre-staged noise:
 * particle e applies rot1 = odom.rot1 + noise_rot1[e] (likewise trans,
 * rot2), then the standard heading/translate/normalize step, exactly
 * as ParticleFilter::motionUpdate's serial loop does after its three
 * rng.normal draws.
 */
void motionModelScalar(double *x, double *y, double *theta,
                       const double *noise_rot1, const double *noise_trans,
                       const double *noise_rot2,
                       const OdometryReading &odom, std::size_t count);

/**
 * SoA motion model: full simd::VecD tiles advance in lockstep (cos/sin
 * and normalizeAngle per lane element stay scalar libm), the remainder
 * runs through motionModelScalar. Bitwise identical to the scalar
 * reference for every particle.
 */
void motionModelSoa(double *x, double *y, double *theta,
                    const double *noise_rot1, const double *noise_trans,
                    const double *noise_rot2, const OdometryReading &odom,
                    std::size_t count);

/**
 * Beam-mixture log-weights for @p count particles whose expected scans
 * are stored contiguously (particle e's beams at
 * expected[e*n_beams .. e*n_beams+n_beams-1]). log_weights[e] receives
 * the tempered log-likelihood exactly as
 * ParticleFilter::measurementUpdate's weight phase needs it. A scalar
 * loop: the phase is exp/log-bound, and an SoA leg measured 0.91-0.99x
 * of it (EXPERIMENTS.md "Batched environments").
 */
void beamLogWeights(const double *expected, std::size_t count,
                    std::size_t n_beams, const double *scan_ranges,
                    const BeamSensorModel &model, double max_range,
                    double *log_weights);

} // namespace rtr

#endif // RTR_PERCEPTION_BATCH_PFL_H
