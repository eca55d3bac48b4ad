/**
 * @file
 * Bitwise-identity tests of the batched environments (DESIGN.md
 * "Batched environments"): the soa engine must reproduce the scalar
 * reference exactly — rewards, traces, state sequences, rollout costs
 * and particle poses — at every environment count (including
 * non-multiple-of-kWidth remainders), thread count and seed, and
 * non-finite values must propagate through a lane exactly as through
 * the reference.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "control/ball_throw.h"
#include "control/batch_env.h"
#include "control/cem.h"
#include "control/gaussian_process.h"
#include "control/mpc.h"
#include "kernels/registry.h"
#include "perception/batch_pfl.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rtr {
namespace {

/** Exact equality including NaN payloads and zero signs. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bits differ)";
}

/** Env counts crossing every remainder class of kWidth in {1,2,4,8}. */
const std::vector<std::size_t> kCounts = {1,  2,  3,  4,  5,   7,  8,
                                          9,  15, 16, 17, 31,  63, 64,
                                          65, 127, 128, 129, 257};

TEST(BatchThrow, SoaMatchesScalarAndEnvAtEveryCount)
{
    BallThrowEnv env(5.0);
    Rng rng(11);
    for (std::size_t count : kCounts) {
        std::vector<double> t1(count), t2(count), sp(count);
        for (std::size_t e = 0; e < count; ++e) {
            t1[e] = rng.uniform(env.lowerBounds()[0],
                                env.upperBounds()[0]);
            t2[e] = rng.uniform(env.lowerBounds()[1],
                                env.upperBounds()[1]);
            sp[e] = rng.uniform(env.lowerBounds()[2],
                                env.upperBounds()[2]);
        }
        std::vector<double> r_soa(count), r_ref(count);
        std::vector<double> tr_soa(count * 64), tr_ref(count * 64);
        evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), count,
                           r_soa.data(), tr_soa.data(),
                           BatchEngine::Soa);
        evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), count,
                           r_ref.data(), tr_ref.data(),
                           BatchEngine::Scalar);
        for (std::size_t e = 0; e < count; ++e) {
            EXPECT_TRUE(bitEqual(r_soa[e], r_ref[e]))
                << "count " << count << " env " << e;
            // The scalar engine must itself be the env's own answer.
            const std::vector<double> params = {t1[e], t2[e], sp[e]};
            EXPECT_TRUE(bitEqual(r_ref[e], env.evaluate(params)));
            const auto trace = env.flightTrace(params);
            for (std::size_t i = 0; i < 64; ++i) {
                EXPECT_TRUE(bitEqual(tr_soa[e * 64 + i],
                                     tr_ref[e * 64 + i]));
                EXPECT_TRUE(bitEqual(tr_ref[e * 64 + i], trace[i]));
            }
        }
    }
}

TEST(BatchThrow, NonFiniteParamsPropagateIdentically)
{
    BallThrowEnv env(5.0);
    const std::size_t count = 9; // full lanes + remainder on every ISA
    std::vector<double> t1(count, 0.7), t2(count, -0.3), sp(count, 6.0);
    t1[2] = std::numeric_limits<double>::quiet_NaN();
    sp[5] = std::numeric_limits<double>::infinity();
    t2[6] = -std::numeric_limits<double>::infinity();

    std::vector<double> r_soa(count), r_ref(count);
    std::vector<double> tr_soa(count * 64), tr_ref(count * 64);
    evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), count,
                       r_soa.data(), tr_soa.data(), BatchEngine::Soa);
    evaluateThrowBatch(env, t1.data(), t2.data(), sp.data(), count,
                       r_ref.data(), tr_ref.data(), BatchEngine::Scalar);
    for (std::size_t e = 0; e < count; ++e) {
        EXPECT_TRUE(bitEqual(r_soa[e], r_ref[e])) << "env " << e;
        for (std::size_t i = 0; i < 64; ++i)
            EXPECT_TRUE(bitEqual(tr_soa[e * 64 + i], tr_ref[e * 64 + i]))
                << "env " << e << " slot " << i;
    }
    // The poisoned lanes really did degrade (and only those).
    EXPECT_TRUE(std::isnan(r_soa[2]));
    EXPECT_TRUE(bitEqual(r_soa[0], r_soa[1]));
}

TEST(BatchUnicycle, StepAndRolloutMatchScalarAtEveryCount)
{
    MpcConfig config;
    config.horizon = 12;
    const auto h = static_cast<std::size_t>(config.horizon);
    Rng rng(7);
    std::vector<Vec2> reference;
    for (std::size_t k = 0; k < h; ++k)
        reference.push_back(
            {0.2 * static_cast<double>(k), rng.uniform(-0.5, 0.5)});

    for (std::size_t count : kCounts) {
        std::vector<UnicycleState> starts(count);
        std::vector<double> v(h * count), w(h * count);
        for (std::size_t e = 0; e < count; ++e) {
            starts[e].x = rng.uniform(-1.0, 1.0);
            starts[e].y = rng.uniform(-1.0, 1.0);
            starts[e].theta = rng.uniform(-3.0, 3.0);
            starts[e].v = rng.uniform(0.0, 2.0);
        }
        for (double &x : v)
            x = rng.uniform(0.0, 2.0);
        for (double &x : w)
            x = rng.uniform(-1.5, 1.5);

        // Per-step state identity.
        UnicycleBatch soa, ref;
        soa.assign(count, starts[0]);
        ref.assign(count, starts[0]);
        for (std::size_t e = 0; e < count; ++e) {
            soa.x[e] = ref.x[e] = starts[e].x;
            soa.y[e] = ref.y[e] = starts[e].y;
            soa.theta[e] = ref.theta[e] = starts[e].theta;
            soa.v[e] = ref.v[e] = starts[e].v;
        }
        for (std::size_t k = 0; k < h; ++k) {
            stepUnicycleBatch(soa, v.data() + k * count,
                              w.data() + k * count, config.dt,
                              BatchEngine::Soa);
            stepUnicycleBatch(ref, v.data() + k * count,
                              w.data() + k * count, config.dt,
                              BatchEngine::Scalar);
            for (std::size_t e = 0; e < count; ++e) {
                ASSERT_TRUE(bitEqual(soa.x[e], ref.x[e]))
                    << count << "/" << k << "/" << e;
                ASSERT_TRUE(bitEqual(soa.y[e], ref.y[e]));
                ASSERT_TRUE(bitEqual(soa.theta[e], ref.theta[e]));
                ASSERT_TRUE(bitEqual(soa.v[e], ref.v[e]));
            }
        }

        // Rollout-cost identity, against the serial reference function.
        std::vector<double> c_soa(count), c_ref(count);
        unicycleRolloutCostBatch(config, starts.data(), reference,
                                 v.data(), w.data(), h, count,
                                 c_soa.data(), BatchEngine::Soa);
        unicycleRolloutCostBatch(config, starts.data(), reference,
                                 v.data(), w.data(), h, count,
                                 c_ref.data(), BatchEngine::Scalar);
        for (std::size_t e = 0; e < count; ++e) {
            EXPECT_TRUE(bitEqual(c_soa[e], c_ref[e]))
                << "count " << count << " env " << e;
            std::vector<double> ve(h), we(h);
            for (std::size_t k = 0; k < h; ++k) {
                ve[k] = v[k * count + e];
                we[k] = w[k * count + e];
            }
            EXPECT_TRUE(bitEqual(
                c_ref[e],
                unicycleRolloutCost(config, starts[e], reference, ve,
                                    we)));
        }
    }
}

TEST(BatchMpc, GradientIdenticalAcrossEnginesAndThreads)
{
    MpcConfig config;
    config.horizon = 15;
    const auto h = static_cast<std::size_t>(config.horizon);
    Rng rng(3);
    std::vector<Vec2> reference;
    for (std::size_t k = 0; k < h; ++k)
        reference.push_back({0.15 * static_cast<double>(k),
                             rng.uniform(-0.4, 0.4)});
    UnicycleState start;
    start.theta = 0.3;
    start.v = 1.0;
    std::vector<double> v(h), w(h);
    for (std::size_t k = 0; k < h; ++k) {
        v[k] = rng.uniform(0.0, 2.0);
        w[k] = rng.uniform(-1.5, 1.5);
    }

    std::vector<std::vector<double>> gv, gw;
    for (std::size_t threads : {std::size_t{1}, std::size_t{3},
                                std::size_t{0}}) {
        setParallelThreads(threads);
        for (BatchEngine engine :
             {BatchEngine::Soa, BatchEngine::Scalar}) {
            MpcConfig c = config;
            c.batch_engine = engine;
            std::vector<double> grad_v(h), grad_w(h);
            mpcCentralDiffGradient(c, start, reference, v, w, 1e-4,
                                   grad_v, grad_w);
            gv.push_back(grad_v);
            gw.push_back(grad_w);
        }
    }
    setParallelThreads(0);
    for (std::size_t i = 1; i < gv.size(); ++i)
        for (std::size_t k = 0; k < h; ++k) {
            EXPECT_TRUE(bitEqual(gv[i][k], gv[0][k]))
                << "variant " << i << " k " << k;
            EXPECT_TRUE(bitEqual(gw[i][k], gw[0][k]));
        }
}

TEST(BatchPfl, MotionModelAndBeamWeightsMatchScalar)
{
    Rng rng(19);
    OdometryReading odom;
    odom.rot1 = 0.2;
    odom.trans = 0.35;
    odom.rot2 = -0.1;

    for (std::size_t count : kCounts) {
        std::vector<double> x(count), y(count), th(count);
        std::vector<double> n1(count), n2(count), n3(count);
        for (std::size_t e = 0; e < count; ++e) {
            x[e] = rng.uniform(-5.0, 5.0);
            y[e] = rng.uniform(-5.0, 5.0);
            th[e] = rng.uniform(-3.1, 3.1);
            n1[e] = rng.normal(0.0, 0.05);
            n2[e] = rng.normal(0.0, 0.02);
            n3[e] = rng.normal(0.0, 0.05);
        }
        std::vector<double> xs = x, ys = y, ths = th;
        motionModelSoa(xs.data(), ys.data(), ths.data(), n1.data(),
                       n2.data(), n3.data(), odom, count);
        motionModelScalar(x.data(), y.data(), th.data(), n1.data(),
                          n2.data(), n3.data(), odom, count);
        for (std::size_t e = 0; e < count; ++e) {
            ASSERT_TRUE(bitEqual(xs[e], x[e])) << count << "/" << e;
            ASSERT_TRUE(bitEqual(ys[e], y[e]));
            ASSERT_TRUE(bitEqual(ths[e], th[e]));
        }
    }
}

TEST(BatchGp, PredictBatchBitwiseMatchesPredict)
{
    GaussianProcess gp;
    Rng rng(29);
    const std::size_t dims = 3;
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (int i = 0; i < 24; ++i) {
        std::vector<double> x(dims);
        for (double &v : x)
            v = rng.uniform(-2.0, 2.0);
        inputs.push_back(x);
        targets.push_back(rng.uniform(-1.0, 1.0));
    }
    gp.fit(inputs, targets);

    // 300 queries cross the 256-candidate tile boundary.
    const std::size_t n = 300;
    std::vector<double> queries(n * dims);
    for (double &q : queries)
        q = rng.uniform(-2.5, 2.5);
    std::vector<double> means(n), vars(n);
    gp.predictBatch(queries.data(), n, dims, means.data(), vars.data());
    for (std::size_t c = 0; c < n; ++c) {
        std::vector<double> q(queries.begin() +
                                  static_cast<std::ptrdiff_t>(c * dims),
                              queries.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      (c + 1) * dims));
        GpPrediction pred = gp.predict(q);
        EXPECT_TRUE(bitEqual(means[c], pred.mean)) << "query " << c;
        EXPECT_TRUE(bitEqual(vars[c], pred.variance)) << "query " << c;
    }
}

TEST(BatchCem, EvaluatorEnginesAndFunctionalPathAgree)
{
    BallThrowEnv env(5.0);
    CemConfig config;
    CemOptimizer optimizer(config);
    auto reward = [&env](const std::vector<double> &p) {
        return env.evaluate(p);
    };
    auto trace = [&env](const std::vector<double> &p) {
        return env.flightTrace(p);
    };

    std::vector<CemResult> results;
    for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        setParallelThreads(threads);
        {
            Rng rng(5);
            results.push_back(optimizer.optimize(
                reward, env.lowerBounds(), env.upperBounds(), rng,
                nullptr, trace));
        }
        for (BatchEngine engine :
             {BatchEngine::Soa, BatchEngine::Scalar}) {
            Rng rng(5);
            ThrowSampleEvaluator evaluator(env, true, engine);
            results.push_back(optimizer.optimize(
                evaluator, env.lowerBounds(), env.upperBounds(), rng));
        }
    }
    setParallelThreads(0);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(
            bitEqual(results[i].best_reward, results[0].best_reward))
            << "variant " << i;
        ASSERT_EQ(results[i].best_params.size(),
                  results[0].best_params.size());
        for (std::size_t d = 0; d < results[0].best_params.size(); ++d)
            EXPECT_TRUE(bitEqual(results[i].best_params[d],
                                 results[0].best_params[d]));
        ASSERT_EQ(results[i].reward_history.size(),
                  results[0].reward_history.size());
        for (std::size_t s = 0; s < results[0].reward_history.size();
             ++s)
            EXPECT_TRUE(bitEqual(results[i].reward_history[s],
                                 results[0].reward_history[s]));
    }
}

/** Non-timing kernel outputs that must be engine-independent. */
struct CrossEngineCase
{
    const char *kernel;
    std::vector<std::string> overrides;
    std::vector<const char *> metrics;
};

TEST(BatchKernels, CrossEngineOutputsIdentical)
{
    const std::vector<CrossEngineCase> cases = {
        {"cem",
         {"--repeats", "3"},
         {"best_reward", "evaluations_per_episode"}},
        {"mpc",
         {"--ref-points", "12", "--opt-iterations", "5"},
         {"avg_tracking_error_m", "max_tracking_error_m", "cost_evals"}},
        {"bo",
         {"--iterations", "3", "--candidates", "500"},
         {"best_reward", "acquisition_evals"}},
        {"pfl",
         {"--particles", "150", "--steps", "6"},
         {"final_error_m", "final_spread_m", "rays_cast"}},
    };
    for (const CrossEngineCase &c : cases) {
        std::vector<std::string> soa_args = c.overrides;
        soa_args.insert(soa_args.end(), {"--batch", "soa"});
        std::vector<std::string> scalar_args = c.overrides;
        scalar_args.insert(scalar_args.end(), {"--batch", "scalar"});
        KernelReport soa = makeKernel(c.kernel)->runWithDefaults(soa_args);
        KernelReport scalar =
            makeKernel(c.kernel)->runWithDefaults(scalar_args);
        for (const char *m : c.metrics) {
            ASSERT_TRUE(soa.metrics.count(m)) << c.kernel << " " << m;
            ASSERT_TRUE(scalar.metrics.count(m));
            EXPECT_TRUE(bitEqual(soa.metrics.at(m), scalar.metrics.at(m)))
                << c.kernel << " metric " << m;
        }
        for (const auto &[name, series] : soa.series) {
            ASSERT_TRUE(scalar.series.count(name));
            const auto &other = scalar.series.at(name);
            ASSERT_EQ(series.size(), other.size()) << c.kernel;
            for (std::size_t i = 0; i < series.size(); ++i)
                EXPECT_TRUE(bitEqual(series[i], other[i]))
                    << c.kernel << " series " << name << "[" << i << "]";
        }
    }
}

} // namespace
} // namespace rtr
