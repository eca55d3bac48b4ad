/**
 * @file
 * Self-tests of the benchmark (perfbench --selftest): the statistics
 * rules, the metric catalogue, the failure accounting, and negative
 * tests that feed each oracle a corrupted output and require the
 * ledger to count it as failed.
 */

#include <cmath>
#include <iostream>
#include <set>

#include "bench.h"
#include "kernels/registry.h"
#include "oracles.h"
#include "search/grid_planner2d.h"
#include "service/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace rtr::service;

int g_failures = 0;

void
expect(bool ok, const std::string &name)
{
    std::cout << "selftest " << name << ": " << (ok ? "ok" : "FAILED") << "\n";
    if (!ok)
        ++g_failures;
}

/** A corrupted output must be counted as one failure. */
void
expectCaught(const std::string &problem, const std::string &name)
{
    Ledger ledger;
    ledger.check(problem.empty(), name + ": " + problem);
    expect(ledger.attempted() == 1 && ledger.failed() == 1,
           "negative: " + name + " (" + problem + ")");
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

void
testStatistics()
{
    // 100 samples: p90 (index 89) has 10 beyond, p95 only 5.
    expect(quantile(iota(100), 0.90).value_or(-1) == 90.0,
           "p90 of 100 samples is reported");
    expect(!quantile(iota(100), 0.95).has_value(),
           "p95 of 100 samples is refused (5 beyond)");
    const auto t = tail(iota(1000));
    expect(t && t->q == 0.99 && t->value == 990.0,
           "tail of 1000 samples is p99 with 10 beyond");
    expect(tail(iota(40)).has_value() && !tail(iota(39)).has_value(),
           "no tail below 40 samples");
    expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
    // One slow input in one kernel moves only that kernel's median; the
    // median of per-round sums would move with it.
    // Half the run slowed 3x: the plain median lands in the slow half,
    // the quiet-window median stays with the undisturbed windows.
    std::vector<double> episodic(1200, 1.0);
    for (std::size_t i = 0; i < 600; ++i)
        episodic[i] = 3.0 + 0.001 * static_cast<double>(i % 7);
    expect(quietWindowMedian(episodic) == 1.0 && median(episodic) > 1.0,
           "quiet-window median ignores a slowed half of the run");
    expect(quietWindowMedian({2.0, 1.0, 3.0}) == 2.0,
           "quiet-window median falls back to the median on few samples");
    expect(deckFigure({{10, 30, 12}, {1}, {}, {5, 15}}) == 5.0,
           "deck figure is the median over decks of each deck's minimum");
    // Every deck's second pass ran on a host slowed 3x; one deck holds
    // an input 100x heavier than the others.
    expect(deckFigure({{1, 3}, {2, 6}, {100, 300}, {1.5, 4.5}}) == 1.75,
           "deck figure ignores a slowed pass and one heavy input");
}

void
testCatalogue()
{
    std::set<std::string> names;
    bool valid = true, unique = true;
    for (const auto *list : {&endToEndSpecs(), &perLayerSpecs()}) {
        for (const MetricSpec &spec : *list) {
            valid = valid && validMetricName(spec.name) && !spec.unit.empty();
            unique = names.insert(spec.name).second && unique;
        }
    }
    expect(valid, "metric names match [A-Za-z0-9_.-]+");
    expect(unique, "no metric name carries two definitions");
    expect(!validMetricName("bad name") && !validMetricName(".x") &&
               !validMetricName("a/b"),
           "invalid names are rejected");
    expect(perLayerSpecs().size() <= 128 && endToEndSpecs().size() <= 16,
           "catalogue sizes");
}

void
testLedger()
{
    Ledger ledger;
    ledger.check(true, "a");
    ledger.check(false, "b");
    ledger.check(false, "c");
    ledger.check(true, "d");
    expect(ledger.attempted() == 4 && ledger.failed() == 2,
           "attempted/failed counts");
    bool listed = !knownDefects().empty();
    for (const KnownDefect &d : knownDefects())
        for (std::uint64_t seed : d.seeds)
            listed = listed && isKnownDefect(d.kernel, seed) && seed >= 1 &&
                     seed <= kKernelSeedRange;
    expect(listed && isKnownDefect("srec", 7) && !isKnownDefect("srec", 8),
           "known-defect lookup");
    bool in_range = true;
    for (std::uint64_t seed : {1ull, 2ull, 99ull})
        for (std::size_t r = 0; r < 20; ++r)
            for (const KnownDefect &d : knownDefects()) {
                const std::uint64_t s = deriveKernelSeed(d.kernel, seed, r, 3);
                in_range = in_range && s >= 1 && s <= kKernelSeedRange &&
                           !isKnownDefect(d.kernel, s);
            }
    expect(in_range,
           "derived kernel seeds stay in the swept range, off the defects");
    bool probes = true;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const DefectInput p = knownDefectProbe(seed);
        probes = probes && isKnownDefect(p.kernel, p.seed);
    }
    expect(probes, "defect probes come from the known-defect list");
}

void
testKernelIdentity()
{
    auto kernel = rtr::makeKernel("ekfslam");
    const rtr::KernelReport a = kernel->runWithDefaults({"--seed", "3"});
    const rtr::KernelReport b = kernel->runWithDefaults({"--seed", "3"});
    expect(compareKernelOutputs(a, b).empty(),
           "identical kernel runs compare equal");
    rtr::KernelReport c = b;
    auto it = c.metrics.find("final_pose_error_m");
    it->second = std::nextafter(it->second, 1e9);
    expectCaught(compareKernelOutputs(a, c),
                 "kernel metric differing by one ulp across thread counts");
    rtr::KernelReport d = b;
    d.series["pose_error"][17] += 1e-12;
    expectCaught(compareKernelOutputs(a, d), "kernel series differing");
    rtr::KernelReport e = b;
    e.metrics["final_pose_error_m"] = std::nan("");
    expectCaught(checkKernelQuality("ekfslam", e), "NaN quality metric");
    expect(checkKernelQuality("ekfslam", a).empty(),
           "a good ekfslam run passes its quality bound");
}

void
testServiceOracles()
{
    const World world;
    OracleScratch scratch(world);
    rtr::Rng rng(5);

    // pp2d: a real WA* plan passes; a path through an obstacle fails.
    Pp2dPlanRequest request;
    rtr::GridPlan2D plan;
    for (int attempt = 0; attempt < 100 && plan.path.size() < 8; ++attempt) {
        request = world.randomPp2d(rng);
        rtr::RectFootprint footprint(world.footprint());
        rtr::GridPlanner2D planner(world.grid(), &footprint);
        plan = planner.plan(request.start, request.goal, request.epsilon);
    }
    Pp2dPlanResponse good{plan.found, plan.cost, plan.expanded, plan.path};
    expect(checkPp2d(world, request, good, scratch).empty(),
           "a real pp2d response passes");
    // A straight 8-neighbour walk from start to goal, priced honestly,
    // that ignores obstacles: the oracle must find the colliding cell.
    Pp2dPlanRequest blocked;
    Pp2dPlanResponse through;
    bool collides = false;
    for (int attempt = 0; attempt < 200 && !collides; ++attempt) {
        blocked = world.randomPp2d(rng);
        through = Pp2dPlanResponse{true, 0.0, 0, {blocked.start}};
        rtr::Cell2 c = blocked.start;
        rtr::RectFootprint footprint(world.footprint());
        rtr::GridPlanner2D probe(world.grid(), &footprint);
        while (!(c == blocked.goal)) {
            const int dx = (blocked.goal.x > c.x) - (blocked.goal.x < c.x);
            const int dy = (blocked.goal.y > c.y) - (blocked.goal.y < c.y);
            c = rtr::Cell2{c.x + dx, c.y + dy};
            through.cost += (dx != 0 && dy != 0 ? 1.41421356237309515 : 1.0) *
                            world.grid().resolution();
            through.path.push_back(c);
            collides = collides || !probe.stateValid(c, 0.0);
        }
        collides = collides &&
                   probe.plan(blocked.start, blocked.goal, 1.0).found;
    }
    expect(collides, "built a straight path through an obstacle");
    const std::string through_problem =
        checkPp2d(world, blocked, through, scratch);
    expectCaught(through_problem.find("collides") != std::string::npos
                     ? through_problem
                     : "",
                 "pp2d path through an obstacle");
    Pp2dPlanResponse pricey = good;
    pricey.cost *= 1.01;
    expectCaught(checkPp2d(world, request, pricey, scratch),
                 "pp2d cost that is not the summed steps");
    Pp2dPlanResponse lost = good;
    lost.found = false;
    lost.path.clear();
    expectCaught(checkPp2d(world, request, lost, scratch),
                 "pp2d found=false on a solvable request");

    // prm: a real query passes; a colliding waypoint fails.
    PrmQueryResponse prm;
    PrmQueryRequest prm_request;
    for (int attempt = 0; attempt < 50 && !prm.found; ++attempt) {
        prm_request = world.randomPrm(rng);
        rtr::ArmCollisionChecker checker(world.checkerPrototype());
        std::size_t evals = 0;
        rtr::MotionPlan m = world.prm().query(prm_request.start,
                                              prm_request.goal, checker,
                                              nullptr, &evals);
        prm = PrmQueryResponse{m.found, m.cost, evals, m.path};
    }
    expect(prm.found && checkPrm(world, prm_request, prm, scratch).empty(),
           "a real prm response passes");
    PrmQueryResponse bent = prm;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        rtr::ArmConfig q = world.space().sample(rng);
        if (scratch.checker.configCollides(q)) {
            bent.path.insert(bent.path.begin() + 1, q);
            break;
        }
    }
    expectCaught(checkPrm(world, prm_request, bent, scratch),
                 "prm path through a colliding configuration");

    // nn: the index's answer passes; a wrong id fails.
    const NnBatchRequest nn_request = world.randomNnBatch(rng);
    NnBatchResponse nn;
    world.nnIndex().kNearestBatch(nn_request.queries, nn_request.k, nn.hits);
    expect(checkNn(world, nn_request, nn).empty(), "a real nn response passes");
    NnBatchResponse wrong = nn;
    wrong.hits[5].id = (wrong.hits[5].id + 1) %
                       static_cast<std::uint32_t>(world.nnCloud().size());
    expectCaught(checkNn(world, nn_request, wrong), "nn hit with a wrong id");

    // icp: a real registration passes; a sheared rotation, a poor fit
    // and an impossible iteration count fail.
    const IcpRegisterRequest icp_request = world.randomIcp(rng);
    IcpRegisterResponse icp;
    {
        ServiceConfig one;
        one.workers = 1;
        PlanningService svc(world, one);
        const Ticket t = svc.submit(icp_request);
        svc.start();
        svc.shutdown(PlanningService::Shutdown::Drain);
        icp = std::get<IcpRegisterResponse>(svc.collect(t).response);
    }
    expect(checkIcp(icp_request, icp).empty(), "a real icp response passes");
    IcpRegisterResponse sheared = icp;
    sheared.transform[1] += 0.05;
    expectCaught(checkIcp(icp_request, sheared), "icp sheared rotation");
    IcpRegisterResponse poor = icp;
    poor.converged = true;
    poor.rmse = 0.2;
    expectCaught(checkIcp(icp_request, poor), "icp with a poor fit");
    IcpRegisterResponse runaway = icp;
    runaway.iterations = icp_request.max_iterations + 1;
    expectCaught(checkIcp(icp_request, runaway), "icp past its iteration cap");
    expectCaught(checkResponse(world, Request{nn_request}, Response{icp},
                               scratch),
                 "response of the wrong type");

    // Replay: one nudged field breaks byte equality.
    Pp2dPlanResponse nudged = good;
    nudged.cost = std::nextafter(nudged.cost, 1e9);
    expect(sameResponse(Response{good}, Response{good}),
           "identical responses replay equal");
    expectCaught(sameResponse(Response{good}, Response{nudged})
                     ? ""
                     : "replayed response bytes differ",
                 "mismatched replay");

    // A refused ticket: a full queue on a stopped service refuses.
    ServiceConfig config;
    config.workers = 1;
    config.queue_capacity = 2;
    PlanningService svc(world, config);
    Ticket last{1};
    for (int i = 0; i < 4 && last.id != 0; ++i)
        last = svc.trySubmit(nn_request);
    expect(last.id == 0, "a full queue refuses a submit");
    expectCaught(checkTicketOutcome(last.id == 0, TicketStatus::Unknown),
                 "refused ticket");
    expectCaught(checkTicketOutcome(false, TicketStatus::Cancelled),
                 "cancelled ticket");
}

} // namespace

int
runSelfTests()
{
    testStatistics();
    testCatalogue();
    testLedger();
    testKernelIdentity();
    testServiceOracles();
    std::cout << "selftest: " << g_failures << " failed\n";
    return g_failures;
}

} // namespace perfbench
