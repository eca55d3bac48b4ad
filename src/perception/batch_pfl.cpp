#include "perception/batch_pfl.h"

#include <cmath>

#include "geom/angle.h"
#include "util/simd.h"

namespace rtr {

using simd::VecD;

namespace {

constexpr std::size_t kW = VecD::kWidth;

} // namespace

void
motionModelScalar(double *x, double *y, double *theta,
                  const double *noise_rot1, const double *noise_trans,
                  const double *noise_rot2, const OdometryReading &odom,
                  std::size_t count)
{
    for (std::size_t e = 0; e < count; ++e) {
        double rot1 = odom.rot1 + noise_rot1[e];
        double trans = odom.trans + noise_trans[e];
        double rot2 = odom.rot2 + noise_rot2[e];
        double heading = theta[e] + rot1;
        x[e] += trans * std::cos(heading);
        y[e] += trans * std::sin(heading);
        theta[e] = normalizeAngle(heading + rot2);
    }
}

void
motionModelSoa(double *x, double *y, double *theta,
               const double *noise_rot1, const double *noise_trans,
               const double *noise_rot2, const OdometryReading &odom,
               std::size_t count)
{
    const VecD r1v = VecD::broadcast(odom.rot1);
    const VecD trv = VecD::broadcast(odom.trans);
    const VecD r2v = VecD::broadcast(odom.rot2);

    std::size_t e = 0;
    for (; e + kW <= count; e += kW) {
        const VecD rot1v = r1v + VecD::load(noise_rot1 + e);
        const VecD transv = trv + VecD::load(noise_trans + e);
        const VecD rot2v = r2v + VecD::load(noise_rot2 + e);
        const VecD headv = VecD::load(theta + e) + rot1v;

        // cos/sin of the heading stay scalar libm per lane element.
        double head[kW], cb[kW], sb[kW];
        headv.store(head);
        for (std::size_t l = 0; l < kW; ++l) {
            cb[l] = std::cos(head[l]);
            sb[l] = std::sin(head[l]);
        }
        VecD::mulAdd(VecD::load(x + e), transv, VecD::load(cb))
            .store(x + e);
        VecD::mulAdd(VecD::load(y + e), transv, VecD::load(sb))
            .store(y + e);

        double hr[kW];
        (headv + rot2v).store(hr);
        for (std::size_t l = 0; l < kW; ++l)
            theta[e + l] = normalizeAngle(hr[l]);
    }
    motionModelScalar(x + e, y + e, theta + e, noise_rot1 + e,
                      noise_trans + e, noise_rot2 + e, odom, count - e);
}

void
beamLogWeights(const double *expected, std::size_t count,
               std::size_t n_beams, const double *scan_ranges,
               const BeamSensorModel &model, double max_range,
               double *log_weights)
{
    const double inv_sigma2 = 1.0 / (2.0 * model.sigma * model.sigma);
    const double gauss_norm = 1.0 / (model.sigma * std::sqrt(2.0 * kPi));
    const double rand_density = 1.0 / max_range;

    for (std::size_t i = 0; i < count; ++i) {
        const double *ranges = expected + i * n_beams;
        double log_w = 0.0;
        for (std::size_t b = 0; b < n_beams; ++b) {
            double diff = scan_ranges[b] - ranges[b];
            double density = model.z_hit * gauss_norm *
                                 std::exp(-diff * diff * inv_sigma2) +
                             model.z_rand * rand_density;
            log_w += std::log(density + 1e-300);
        }
        log_w /= model.temperature;
        log_weights[i] = log_w;
    }
}

} // namespace rtr
