/**
 * @file
 * Workload `rt-loop`: a periodic 100 Hz robot stack. Each tick runs
 * particle-filter motion -> measurement -> resample, then an EKF-SLAM
 * predict/update, then one MPC solve, and is released on a fixed
 * 10 ms schedule.
 *
 * The localization map is a makeIndoorMap grid whose cell bytes are
 * 4x a 2 MiB L2 (16384 x 512 cells, a 4 km x 128 m building: the
 * generator cuts one cross corridor per 80 cells of width as wide as
 * height/25, so a taller map would be all corridor), the opposite
 * regime to table1's 240 x 160 pfl map. Every input (map, true path, odometry, scans,
 * landmark observations, MPC reference windows) is generated before
 * the clock starts.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench.h"
#include "control/mpc.h"
#include "geom/angle.h"
#include "grid/map_gen.h"
#include "grid/raycast.h"
#include "oracles.h"
#include "perception/ekf_slam.h"
#include "perception/particle_filter.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::int64_t kPeriodNs = 10'000'000;
constexpr std::size_t kWarmupTicks = 50;
constexpr int kMapWidth = 16384;
constexpr int kMapHeight = 512;
constexpr double kMapResolution = 0.25;
constexpr std::uint64_t kMapSeed = 12;
constexpr std::size_t kParticles = 1000;
constexpr std::size_t kThreads = 2;
constexpr int kBeams = 60;
constexpr double kMaxRange = 10.0;
constexpr double kStepM = 0.02;  // 2 m/s at 100 Hz
constexpr int kLandmarks = 40;
constexpr double kEkfV = 1.2, kEkfOmega = 0.18, kDt = 0.01;
/** Every 4th tick runs untraced in a traced run (overhead baseline). */
constexpr std::size_t kUntracedEvery = 4;

/** Everything generated before the clock starts. */
struct Inputs
{
    std::unique_ptr<rtr::OccupancyGrid2D> map;
    std::vector<rtr::Pose2> truth;
    std::vector<rtr::OdometryReading> odometry;  // odometry[t]: t-1 -> t
    std::vector<rtr::LaserScan> scans;
    rtr::SlamWorld slam_world;
    std::vector<rtr::Pose2> slam_truth;
    std::vector<std::vector<rtr::RangeBearing>> observations;
    std::vector<std::pair<double, double>> controls;
    std::vector<rtr::Vec2> reference;
    std::vector<std::vector<rtr::Vec2>> windows;
    std::unique_ptr<rtr::ParticleFilter> filter;
};

/**
 * Walk along the main corridor 2 m from its lower wall, where the door
 * gaps of the rooms give the scans features along the corridor (its
 * middle is wider than the laser range and featureless).
 */
std::vector<rtr::Pose2>
makeTruePath(const rtr::OccupancyGrid2D &map, std::size_t steps,
             rtr::Rng &rng)
{
    const rtr::Vec2 centre{map.origin().x + map.worldWidth() * 0.3,
                           map.origin().y + map.worldHeight() / 2.0};
    // The nearest wall below the centre line, past door gaps and cross
    // corridors.
    double below = map.worldHeight();
    for (double dx = -20.0; dx <= 20.0; dx += map.resolution())
        below = std::min(below, rtr::castRay(map, {centre.x + dx, centre.y},
                                             -rtr::kPi / 2.0,
                                             map.worldHeight()));
    const double lane_y = centre.y - below + 2.0;
    rtr::Pose2 pose{centre.x, lane_y, 0.0};
    std::vector<rtr::Pose2> path{pose};
    while (path.size() < steps) {
        pose.theta = std::clamp(0.5 * (lane_y - pose.y), -0.3, 0.3) +
                     rng.uniform(-0.02, 0.02);
        pose.x += kStepM * std::cos(pose.theta);
        pose.y += kStepM * std::sin(pose.theta);
        path.push_back(pose);
    }
    return path;
}

Inputs
makeInputs(std::uint64_t seed, std::size_t ticks)
{
    Inputs in;
    rtr::Rng rng(rtr::splitSeed(seed, 11));
    // One building for every seed: the seed varies the walk, the sensor
    // and odometry noise and the landmark world, not the ray-cast cost.
    in.map = std::make_unique<rtr::OccupancyGrid2D>(rtr::makeIndoorMap(
        kMapWidth, kMapHeight, kMapResolution, kMapSeed));
    in.truth = makeTruePath(*in.map, ticks, rng);
    for (std::size_t t = 0; t < ticks; ++t) {
        in.odometry.push_back(t == 0 ? rtr::OdometryReading{}
                                     : rtr::odometryBetween(in.truth[t - 1],
                                                            in.truth[t]));
        in.scans.push_back(rtr::simulateScan(*in.map, in.truth[t], kBeams,
                                             kMaxRange, 0.05, rng));
    }

    in.slam_world = rtr::SlamWorld::make(kLandmarks, rtr::splitSeed(seed, 13));
    rtr::Pose2 pose{6.0, 0.0, rtr::kPi / 2.0};
    for (std::size_t t = 0; t < ticks; ++t) {
        in.slam_truth.push_back(pose);
        in.observations.push_back(
            in.slam_world.observe(pose, rtr::EkfNoise{}, rng));
        in.controls.emplace_back(kEkfV + rng.normal(0.0, 0.05),
                                 kEkfOmega + rng.normal(0.0, 0.01));
        pose.x += kEkfV * kDt * std::cos(pose.theta);
        pose.y += kEkfV * kDt * std::sin(pose.theta);
        pose.theta = rtr::normalizeAngle(pose.theta + kEkfOmega * kDt);
    }

    const rtr::MpcConfig mpc;
    const auto h = static_cast<std::size_t>(mpc.horizon);
    in.reference = rtr::makeReferenceTrajectory(
        static_cast<int>(ticks + h + 2), 0.15);
    for (std::size_t t = 0; t < ticks; ++t) {
        std::vector<rtr::Vec2> window;
        for (std::size_t k = 0; k < h; ++k)
            window.push_back(in.reference[t + 1 + k]);
        in.windows.push_back(std::move(window));
    }

    in.filter = std::make_unique<rtr::ParticleFilter>(*in.map, kParticles);
    rtr::Rng init(rtr::splitSeed(seed, 14));
    in.filter->initializeGaussian(in.truth.front(), 0.2, 0.05, init);
    return in;
}

/** EKF estimate error in the filter frame (truth starts at (6,0), +y). */
double
ekfError(const rtr::Pose2 &est, const rtr::Pose2 &truth,
         const rtr::Pose2 &origin)
{
    const double gx = truth.x - origin.x, gy = truth.y - origin.y;
    const double c = std::cos(-origin.theta), s = std::sin(-origin.theta);
    return std::hypot(est.x - (c * gx - s * gy), est.y - (s * gx + c * gy));
}

void
waitUntil(std::int64_t deadline_ns)
{
    const std::int64_t now = nowNs();
    if (deadline_ns - now > 300'000)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(deadline_ns - now - 200'000));
    while (nowNs() < deadline_ns) {
    }
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

} // namespace

void
runRtLoop(Run &run)
{
    const std::size_t timed =
        static_cast<std::size_t>(std::ceil(run.opt.seconds * 100.0));
    const std::size_t ticks = kWarmupTicks + timed;

    // Fewer workers than cores: a core taken by another process then
    // stalls fewer of the tick's fork-join regions.
    rtr::setParallelThreads(kThreads);
    // Set up five times and keep the last; five more set-ups follow the
    // loop (setup_s is their joint median).
    std::vector<double> setup_s;
    Inputs in;
    for (int i = 0; i < 5; ++i) {
        in = Inputs{};
        const std::int64_t t0 = nowNs();
        in = makeInputs(run.opt.seed, ticks);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    rtr::ParticleFilter &pfl = *in.filter;
    rtr::EkfSlam ekf(kLandmarks, rtr::EkfNoise{});
    rtr::MpcController mpc;
    const rtr::Vec2 d0 = in.reference[1] - in.reference[0];
    rtr::UnicycleState state{in.reference[0].x, in.reference[0].y,
                             std::atan2(d0.y, d0.x),
                             d0.norm() / mpc.config().dt};
    rtr::Rng filter_rng(rtr::splitSeed(run.opt.seed, 15));
    ekf.predict(0.0, 0.0, 0.0);

    std::vector<double> exec_ms, perception_ms, control_ms, lag_ms;
    std::vector<double> motion_ms, measure_ms, resample_ms, predict_ms,
        update_ms, solve_ms, raycast_ms, rays, cost_evals;
    std::vector<double> traced_ns, untraced_ns;
    std::size_t misses = 0;
    std::vector<rtr::Pose2> pfl_est(ticks), ekf_est(ticks);
    std::vector<rtr::UnicycleState> mpc_state(ticks);
    rtr::PhaseProfiler profiler;

    const std::int64_t t0 = nowNs() + kPeriodNs;
    for (std::size_t t = 0; t < ticks; ++t) {
        const bool warm = t < kWarmupTicks;
        const bool traced = run.tracer.enabled() && !warm &&
                            t % kUntracedEvery != kUntracedEvery - 1;
        rtr::PhaseProfiler *prof = traced ? &profiler : nullptr;
        profiler.reset();
        const std::size_t rays_before = pfl.raysCast();
        const std::int64_t release = t0 + static_cast<std::int64_t>(t) * kPeriodNs;
        waitUntil(release);

        std::int64_t s[8];
        s[0] = nowNs();
        if (t > 0)
            pfl.motionUpdate(in.odometry[t], filter_rng, prof);
        s[1] = traced ? nowNs() : 0;
        pfl.measurementUpdate(in.scans[t], prof);
        pfl_est[t] = pfl.estimate();
        s[2] = traced ? nowNs() : 0;
        pfl.resample(filter_rng, prof);
        s[3] = traced ? nowNs() : 0;
        if (t > 0)
            ekf.predict(in.controls[t].first, in.controls[t].second, kDt);
        s[4] = traced ? nowNs() : 0;
        ekf.update(in.observations[t]);
        s[5] = nowNs();
        const rtr::MpcSolution sol = mpc.solve(state, in.windows[t]);
        state = rtr::MpcController::step(state, sol.v[0], sol.omega[0],
                                         mpc.config().dt);
        s[6] = traced ? nowNs() : 0;
        s[7] = nowNs();
        ekf_est[t] = ekf.robotEstimate();
        mpc_state[t] = state;
        if (warm)
            continue;

        exec_ms.push_back(ms(s[7] - s[0]));
        perception_ms.push_back(ms(s[5] - s[0]));
        control_ms.push_back(ms(s[7] - s[5]));
        lag_ms.push_back(ms(s[0] - release));
        if (s[7] > release + kPeriodNs)
            ++misses;
        if (run.tracer.enabled())
            (traced ? traced_ns : untraced_ns)
                .push_back(static_cast<double>(s[7] - s[0]));
        if (!traced)
            continue;
        motion_ms.push_back(ms(s[1] - s[0]));
        measure_ms.push_back(ms(s[2] - s[1]));
        resample_ms.push_back(ms(s[3] - s[2]));
        predict_ms.push_back(ms(s[4] - s[3]));
        update_ms.push_back(ms(s[5] - s[4]));
        solve_ms.push_back(ms(s[6] - s[5]));
        const std::int64_t ray_ns = profiler.phaseNs("raycast");
        raycast_ms.push_back(ms(ray_ns));
        rays.push_back(static_cast<double>(pfl.raysCast() - rays_before));
        cost_evals.push_back(static_cast<double>(sol.cost_evals));

        Tracer &tr = run.tracer;
        tr.countUnit();
        const int root = tr.add("bench", "tick", t, -1, s[0], s[7]);
        tr.add("perception", "pfl_motion", t, root, s[0], s[1]);
        const int measure =
            tr.add("perception", "pfl_measure", t, root, s[1], s[2]);
        tr.add("grid", "raycast", t, measure, s[1], s[1] + ray_ns);
        tr.add("perception", "pfl_resample", t, root, s[2], s[3]);
        tr.add("perception", "ekf_predict", t, root, s[3], s[4]);
        tr.add("linalg", "ekf_update", t, root, s[4], s[5]);
        tr.add("control", "mpc_solve", t, root, s[5], s[6]);
    }

    // ---- Output checks (after the clock) ----
    double worst[3] = {0.0, 0.0, 0.0};
    std::size_t tracked = 0;
    for (std::size_t t = 0; t < ticks; ++t) {
        const double pfl_err = std::hypot(pfl_est[t].x - in.truth[t].x,
                                          pfl_est[t].y - in.truth[t].y);

        worst[0] = std::max(worst[0], pfl_err);
        tracked += pfl_err <= kRtPflTrackErrorM ? 1 : 0;
        run.ledger.check(pfl_err <= kRtPflMaxErrorM,
                         "rt-loop tick " + std::to_string(t) +
                             ": pfl error " + std::to_string(pfl_err) + " m");
        const double ekf_err = ekfError(ekf_est[t], in.slam_truth[t],
                                        in.slam_truth.front());
        worst[1] = std::max(worst[1], ekf_err);
        run.ledger.check(ekf_err <= kRtEkfMaxErrorM,
                         "rt-loop tick " + std::to_string(t) +
                             ": ekf error " + std::to_string(ekf_err) + " m");
        const double mpc_err =
            std::hypot(mpc_state[t].x - in.reference[t + 1].x,
                       mpc_state[t].y - in.reference[t + 1].y);
        worst[2] = std::max(worst[2], mpc_err);
        run.ledger.check(mpc_err <= kRtMpcMaxErrorM &&
                             mpc_state[t].v <= mpc.config().v_max + 1e-9,
                         "rt-loop tick " + std::to_string(t) +
                             ": mpc tracking error " +
                             std::to_string(mpc_err) + " m");
    }

    const double tracked_share =
        static_cast<double>(tracked) / static_cast<double>(ticks);
    run.ledger.check(tracked_share >= kRtPflTrackShare,
                     "rt-loop: pfl within " +
                         std::to_string(kRtPflTrackErrorM) + " m on only " +
                         std::to_string(tracked_share) + " of the ticks");

    // ---- Metrics ----
    // The process peak is read before the late set-ups, each of which
    // holds a second copy of the inputs.
    run.e2e.set("peak_rss_mb", "MB", residentPeakMb(), 1);
    // The host's speed drifts over tens of seconds, so set-ups at both
    // ends of the run follow it less than ten in a row.
    for (int i = 0; i < 5; ++i) {
        const std::int64_t t0 = nowNs();
        const Inputs late = makeInputs(run.opt.seed, ticks);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    const std::size_t n = exec_ms.size();
    run.e2e.set("setup_s", "s", median(setup_s), setup_s.size());
    run.e2e.set("perception_roi_ms", "ms", quietWindowMedian(perception_ms), n);
    run.e2e.set("planning_control_roi_ms", "ms", quietWindowMedian(control_ms),
                n);
    run.e2e.set("work_p50_ms", "ms", quietWindowMedian(exec_ms), n);

    Metrics &L = run.layers;
    L.set("tick_p50_ms", "ms", median(exec_ms), n);
    if (auto tl = tail(exec_ms))
        L.set("tick_tail_ms", "ms", tl->value, n);
    L.set("control_roi_ms", "ms", median(control_ms), n);
    if (auto q = quantile(lag_ms, 0.99))
        L.set("rt.release_lag_ms.p99", "ms", *q, n);
    L.set("rt.deadline_miss_ratio", "ratio",
          static_cast<double>(misses) / static_cast<double>(n), n);
    std::cout << "rt-loop: " << n << " ticks at 100 Hz after " << kWarmupTicks
              << " warm-up ticks; " << misses
              << " deadline misses; pfl within " << kRtPflTrackErrorM
              << " m on " << tracked << " of " << ticks
              << " ticks; worst error pfl " << worst[0]
              << " m, ekf " << worst[1] << " m, mpc " << worst[2] << " m\n";
    if (!run.tracer.enabled())
        return;

    const std::size_t m = motion_ms.size();
    auto p50p99 = [&](const std::string &name,
                      const std::vector<double> &v) {
        L.set(name + ".p50", "ms", median(v), v.size());
        if (auto q = quantile(v, 0.99))
            L.set(name + ".p99", "ms", *q, v.size());
    };
    p50p99("perception.pfl_motion_ms", motion_ms);
    p50p99("perception.pfl_measure_ms", measure_ms);
    p50p99("perception.pfl_resample_ms", resample_ms);
    p50p99("perception.ekf_predict_ms", predict_ms);
    p50p99("perception.ekf_update_ms", update_ms);
    p50p99("control.mpc_solve_ms", solve_ms);
    L.set("grid.raycast_ms", "ms", mean(raycast_ms), m);
    L.set("grid.rays", "count", mean(rays), m);
    L.set("linalg.ms", "ms", mean(update_ms), m);
    L.set("control.rollout_ms", "ms", mean(solve_ms), m);
    L.set("control.cost_evals", "count", mean(cost_evals), m);

    // Probes per ray of the default engine, re-cast from the true pose
    // of every 10th timed tick (outside the timed region).
    rtr::RayCastStats stats;
    std::vector<double> ranges;
    std::size_t cast = 0;
    for (std::size_t t = kWarmupTicks; t < ticks; t += 10) {
        const rtr::LaserScan &scan = in.scans[t];
        rtr::castScanCounted(*in.map, in.truth[t].position(),
                             in.truth[t].theta + scan.start_angle, scan.fov,
                             kBeams, kMaxRange, ranges,
                             rtr::defaultRayEngine(), stats);
        cast += static_cast<std::size_t>(kBeams);
    }
    L.set("grid.probes_per_ray", "count",
          static_cast<double>(stats.probes) / static_cast<double>(cast), cast);

    run.untraced_unit_ns = mean(untraced_ns);
    L.set("bench.trace_overhead_ratio", "ratio",
          mean(traced_ns) / mean(untraced_ns), traced_ns.size());
}

} // namespace perfbench
