/**
 * @file
 * Ablation: batched environments (soa vs scalar rollout engine).
 *
 * The cem, mpc, bo and pfl kernels all advance many independent
 * environments through serial per-step dynamics. The soa engine runs
 * simd::VecD lanes of environments in lockstep (DESIGN.md "Batched
 * environments"); this bench measures what that buys:
 *
 *  1. micro: steps/s of the three batched models (ball-throw
 *     evaluation, unicycle stepping, pfl motion model) over an
 *     environment-count sweep 64..8192 — the scaling curve of
 *     SIMD-across-environments;
 *  2. end-to-end: the four kernels under --batch soa vs --batch
 *     scalar, best-of-5 ROI seconds with the median and max, and
 *     output-metric identity.
 *
 * Both engines are bitwise identical by contract; the bench asserts
 * this on every micro workload and every kernel output and exits 2 on
 * any mismatch. `--json [path]` writes BENCH_envs.json (default path)
 * so EXPERIMENTS.md tracks measured numbers.
 */

#include <cstring>

#include "bench_common.h"
#include "control/ball_throw.h"
#include "control/batch_env.h"
#include "perception/batch_pfl.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace {

using namespace rtr;
using namespace rtr::bench;

/** Best-of-@p reps seconds for one call of @p body, after one warmup. */
template <typename F>
double
bestOf(int reps, F &&body)
{
    body();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        body();
        best = std::min(best, timer.elapsedSec());
    }
    return best;
}

bool
sameArray(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(double)) == 0;
}

/** One micro size-point: all three models, both engines. */
struct MicroResult
{
    std::size_t num_envs = 0;
    double throw_soa_meps = 0.0, throw_scalar_meps = 0.0;
    double step_soa_meps = 0.0, step_scalar_meps = 0.0;
    double motion_soa_meps = 0.0, motion_scalar_meps = 0.0;
    bool identical = true;
};

MicroResult
microAt(std::size_t n, Rng &rng)
{
    const int reps = 5;
    MicroResult res;
    res.num_envs = n;

    // -- ball-throw evaluation (reward + 32-sample trace) --
    {
        BallThrowEnv env(5.0);
        std::vector<double> t1(n), t2(n), sp(n);
        for (std::size_t e = 0; e < n; ++e) {
            t1[e] = rng.uniform(env.lowerBounds()[0],
                                env.upperBounds()[0]);
            t2[e] = rng.uniform(env.lowerBounds()[1],
                                env.upperBounds()[1]);
            sp[e] = rng.uniform(env.lowerBounds()[2],
                                env.upperBounds()[2]);
        }
        std::vector<double> r_soa(n), r_sc(n);
        std::vector<double> tr_soa(n * 64), tr_sc(n * 64);
        const double soa_s = bestOf(reps, [&] {
            evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), n,
                               r_soa.data(), tr_soa.data(),
                               BatchEngine::Soa);
        });
        const double sc_s = bestOf(reps, [&] {
            evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), n,
                               r_sc.data(), tr_sc.data(),
                               BatchEngine::Scalar);
        });
        res.throw_soa_meps = static_cast<double>(n) / soa_s / 1e6;
        res.throw_scalar_meps = static_cast<double>(n) / sc_s / 1e6;
        res.identical = res.identical && sameArray(r_soa, r_sc) &&
                        sameArray(tr_soa, tr_sc);
    }

    // -- unicycle model stepping (one horizon of 16 steps) --
    {
        const std::size_t steps = 16;
        MpcConfig config;
        std::vector<double> v(steps * n), w(steps * n);
        for (double &x : v)
            x = rng.uniform(0.0, 2.0);
        for (double &x : w)
            x = rng.uniform(-1.5, 1.5);
        UnicycleState start;
        start.theta = 0.4;
        start.v = 1.0;
        UnicycleBatch soa, sc;
        auto roll = [&](UnicycleBatch &batch, BatchEngine engine) {
            batch.assign(n, start);
            for (std::size_t k = 0; k < steps; ++k)
                stepUnicycleBatch(batch, v.data() + k * n,
                                  w.data() + k * n, config.dt, engine);
        };
        const double soa_s =
            bestOf(reps, [&] { roll(soa, BatchEngine::Soa); });
        const double sc_s =
            bestOf(reps, [&] { roll(sc, BatchEngine::Scalar); });
        const double env_steps = static_cast<double>(n * steps);
        res.step_soa_meps = env_steps / soa_s / 1e6;
        res.step_scalar_meps = env_steps / sc_s / 1e6;
        res.identical = res.identical && sameArray(soa.x, sc.x) &&
                        sameArray(soa.y, sc.y) &&
                        sameArray(soa.theta, sc.theta) &&
                        sameArray(soa.v, sc.v);
    }

    // -- pfl odometry motion model --
    {
        OdometryReading odom;
        odom.rot1 = 0.15;
        odom.trans = 0.3;
        odom.rot2 = -0.08;
        std::vector<double> x(n), y(n), th(n), n1(n), n2(n), n3(n);
        for (std::size_t e = 0; e < n; ++e) {
            x[e] = rng.uniform(-5.0, 5.0);
            y[e] = rng.uniform(-5.0, 5.0);
            th[e] = rng.uniform(-3.1, 3.1);
            n1[e] = rng.normal(0.0, 0.05);
            n2[e] = rng.normal(0.0, 0.02);
            n3[e] = rng.normal(0.0, 0.05);
        }
        std::vector<double> xs, ys, ths, xc, yc, thc;
        const double soa_s = bestOf(reps, [&] {
            xs = x; ys = y; ths = th;
            motionModelSoa(xs.data(), ys.data(), ths.data(), n1.data(),
                           n2.data(), n3.data(), odom, n);
        });
        const double sc_s = bestOf(reps, [&] {
            xc = x; yc = y; thc = th;
            motionModelScalar(xc.data(), yc.data(), thc.data(),
                              n1.data(), n2.data(), n3.data(), odom, n);
        });
        res.motion_soa_meps = static_cast<double>(n) / soa_s / 1e6;
        res.motion_scalar_meps = static_cast<double>(n) / sc_s / 1e6;
        res.identical = res.identical && sameArray(xs, xc) &&
                        sameArray(ys, yc) && sameArray(ths, thc);
    }

    return res;
}

/** ROI seconds of one kernel configuration over repeated runs. */
struct RoiSpread
{
    double min_s = 0.0;
    double median_s = 0.0;
    double max_s = 0.0;
};

/** End-to-end: one kernel under --batch soa vs --batch scalar. */
struct E2eResult
{
    std::string kernel;
    RoiSpread soa;
    RoiSpread scalar;
    bool identical = true;
};

/** Measured runs per engine in the end-to-end rows (after one warmup). */
constexpr int kE2eReps = 5;

RoiSpread
spreadOf(const std::vector<double> &roi)
{
    return RoiSpread{quantile(roi, 0.0), quantile(roi, 0.5),
                     quantile(roi, 1.0)};
}

/**
 * Kernel-output metrics that must be engine-independent. Timing
 * metrics (fractions, seconds) legitimately differ; everything
 * counting work or measuring solution quality must not.
 */
const std::vector<std::string> kOutputMetrics = {
    "best_reward",        "evaluations_per_episode",
    "acquisition_evals",  "avg_tracking_error_m",
    "max_tracking_error_m", "max_velocity",
    "cost_evals",         "final_error_m",
    "final_spread_m",     "initial_spread_m",
    "rays_cast",
};

/** Reduced-but-representative configs for the four rollout kernels. */
struct E2eRow
{
    const char *kernel;
    std::vector<std::string> overrides;
};

const std::vector<E2eRow> kE2eRows = {
    {"cem", {"--repeats", "400"}},
    {"mpc", {}},
    {"bo", {"--iterations", "15"}},
    {"pfl", {}},
};

E2eResult
e2eKernel(const E2eRow &row)
{
    E2eResult res;
    res.kernel = row.kernel;
    std::vector<std::string> soa_args = row.overrides;
    soa_args.insert(soa_args.end(), {"--batch", "soa"});
    std::vector<std::string> scalar_args = row.overrides;
    scalar_args.insert(scalar_args.end(), {"--batch", "scalar"});

    // The engines alternate run by run, so drift on a shared host hits
    // both alike; best-of-N with the spread, as the micro rows time.
    KernelReport soa, scalar;
    std::vector<double> soa_roi, scalar_roi;
    for (int r = 0; r < kE2eReps; ++r) {
        const int warmup = r == 0 ? warmupRuns() : 0;
        soa = runKernelWarm(row.kernel, soa_args, warmup);
        scalar = runKernelWarm(row.kernel, scalar_args, warmup);
        soa_roi.push_back(soa.roi_seconds);
        scalar_roi.push_back(scalar.roi_seconds);
    }
    res.soa = spreadOf(soa_roi);
    res.scalar = spreadOf(scalar_roi);
    for (const std::string &m : kOutputMetrics) {
        const bool in_soa = soa.metrics.count(m) != 0;
        const bool in_scalar = scalar.metrics.count(m) != 0;
        if (in_soa != in_scalar ||
            (in_soa && soa.metrics.at(m) != scalar.metrics.at(m)))
            res.identical = false;
    }
    for (const auto &[name, series] : soa.series) {
        if (!scalar.series.count(name) ||
            scalar.series.at(name) != series)
            res.identical = false;
    }
    return res;
}

void
writeJson(const std::string &path, const std::vector<MicroResult> &micro,
          const std::vector<E2eResult> &e2e, bool all_identical)
{
    std::ofstream file(path);
    if (!file) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    JsonWriter json(file);
    json.beginObject();
    json.field("benchmark", "batch_envs");
    json.field("simd_backend", simd::kBackendName);
    json.field("lane_width",
               static_cast<long long>(simd::VecD::kWidth));
    json.beginArray("scaling");
    for (const MicroResult &m : micro) {
        json.beginObject();
        json.field("num_envs", static_cast<long long>(m.num_envs));
        json.field("throw_soa_mevals_s", m.throw_soa_meps);
        json.field("throw_scalar_mevals_s", m.throw_scalar_meps);
        json.field("throw_speedup",
                   m.throw_soa_meps / m.throw_scalar_meps);
        json.field("unicycle_soa_msteps_s", m.step_soa_meps);
        json.field("unicycle_scalar_msteps_s", m.step_scalar_meps);
        json.field("unicycle_speedup",
                   m.step_soa_meps / m.step_scalar_meps);
        json.field("pfl_motion_soa_msteps_s", m.motion_soa_meps);
        json.field("pfl_motion_scalar_msteps_s", m.motion_scalar_meps);
        json.field("pfl_motion_speedup",
                   m.motion_soa_meps / m.motion_scalar_meps);
        json.field("identical", m.identical);
        json.endObject();
    }
    json.endArray();
    json.beginArray("end_to_end");
    for (const E2eResult &r : e2e) {
        json.beginObject();
        json.field("kernel", r.kernel);
        json.field("runs_per_engine", static_cast<long long>(kE2eReps));
        json.field("soa_roi_seconds", r.soa.min_s);
        json.field("soa_roi_median_seconds", r.soa.median_s);
        json.field("soa_roi_max_seconds", r.soa.max_s);
        json.field("scalar_roi_seconds", r.scalar.min_s);
        json.field("scalar_roi_median_seconds", r.scalar.median_s);
        json.field("scalar_roi_max_seconds", r.scalar.max_s);
        json.field("speedup", r.scalar.min_s / r.soa.min_s);
        json.field("outputs_identical", r.identical);
        json.endObject();
    }
    json.endArray();
    json.field("all_identical", all_identical);
    json.endObject();
    std::cout << "\nwrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv);
    requireKnownOptions(argc, argv, {"--json [path]"});
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = "BENCH_envs.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[i + 1];
        }
    }

    banner("ablation — batched environments (soa vs scalar)",
           "cem/mpc/bo/pfl advance many independent environments; the "
           "soa engine steps simd lanes of them in lockstep");

    std::cout << "\n[1] micro: model steps/s over an environment-count "
                 "sweep (soa vs scalar, "
              << simd::kBackendName << ", "
              << simd::VecD::kWidth << " lanes)\n";
    Table scaling({"envs", "model", "scalar M/s", "soa M/s", "speedup",
                   "identical"});
    std::vector<MicroResult> micro;
    Rng rng(17);
    bool all_identical = true;
    for (std::size_t n : {64u, 256u, 1024u, 4096u, 8192u}) {
        MicroResult m = microAt(n, rng);
        micro.push_back(m);
        all_identical = all_identical && m.identical;
        const std::string count = Table::count(static_cast<long long>(n));
        const std::string same = m.identical ? "yes" : "NO";
        scaling.addRow({count, "throw eval",
                        Table::num(m.throw_scalar_meps, 2),
                        Table::num(m.throw_soa_meps, 2),
                        Table::num(m.throw_soa_meps /
                                       m.throw_scalar_meps, 2) + "x",
                        same});
        scaling.addRow({count, "unicycle step",
                        Table::num(m.step_scalar_meps, 2),
                        Table::num(m.step_soa_meps, 2),
                        Table::num(m.step_soa_meps /
                                       m.step_scalar_meps, 2) + "x",
                        same});
        scaling.addRow({count, "pfl motion",
                        Table::num(m.motion_scalar_meps, 2),
                        Table::num(m.motion_soa_meps, 2),
                        Table::num(m.motion_soa_meps /
                                       m.motion_scalar_meps, 2) + "x",
                        same});
    }
    scaling.print();

    std::cout << "\n[2] end-to-end: kernels under --batch soa vs "
                 "--batch scalar, "
              << kE2eReps << " alternating runs each\n";
    Table e2e_table({"kernel", "scalar ROI s min/med/max",
                     "soa ROI s min/med/max", "speedup (min)",
                     "outputs identical"});
    std::vector<E2eResult> e2e;
    for (const E2eRow &row : kE2eRows) {
        E2eResult r = e2eKernel(row);
        e2e.push_back(r);
        all_identical = all_identical && r.identical;
        auto spread = [](const RoiSpread &x) {
            return Table::num(x.min_s, 3) + "/" + Table::num(x.median_s, 3) +
                   "/" + Table::num(x.max_s, 3);
        };
        e2e_table.addRow({r.kernel, spread(r.scalar), spread(r.soa),
                          Table::num(r.scalar.min_s / r.soa.min_s, 2) +
                              "x",
                          r.identical ? "yes" : "NO"});
    }
    e2e_table.print();

    if (!json_path.empty())
        writeJson(json_path, micro, e2e, all_identical);

    if (!all_identical) {
        std::cerr << "\nFAIL: soa and scalar engines disagree\n";
        return 2;
    }
    std::cout << "\nall soa/scalar outputs bitwise identical\n";
    return 0;
}
