/**
 * @file
 * Workload `service-mix`: open-loop Poisson traffic against the default
 * World with the pp2d:2,prm:1,nn:10,icp:2 mix, served by 3 workers
 * while one generator thread submits (3 + 1 = 4 busy threads).
 *
 * Phases: a warm-up, a fixed 20k/s step, a bisection rate search for
 * the highest rate whose p99 latency is at most 1 ms with no growing
 * backlog, and three backlog drains. Every arrival schedule and request
 * is generated before its step's clock starts, and latency runs from
 * each request's scheduled arrival, so a stall is charged to every
 * request it delays. A seeded sample of responses from every phase is
 * checked against oracles after the clock stops, and a subset is
 * replayed at 1 and 3 workers and compared byte for byte.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <thread>

#include "bench.h"
#include "oracles.h"
#include "service/service.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace rtr::service;

constexpr std::size_t kWorkers = 3;
constexpr double kFixedRate = 20000.0;
constexpr double kSloUs = 1000.0;
/** A step's generator fell behind when its p99 lateness exceeds this. */
constexpr double kMaxGenLagUs = 250.0;
constexpr double kSearchLo = 10000.0, kSearchHi = 120000.0;
constexpr int kSearchSteps = 7;
constexpr std::size_t kDrainRequests = 20000;
constexpr std::size_t kQueueCapacity = 1 << 17;
/** Share of each phase's responses checked, and the floor per phase. */
constexpr double kSampleShare = 0.025;
constexpr std::size_t kSampleFloor = 1000;
constexpr std::size_t kReplayRequests = 600;
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::size_t kMix[4] = {2, 1, 10, 2};  // pp2d, prm, nn, icp

/** What the benchmark keeps of one request. */
struct Record
{
    RequestType type = RequestType::NnBatch;
    TicketStatus status = TicketStatus::Unknown;
    bool refused = false;
    std::int64_t scheduled_ns = 0;
    std::int64_t call_start_ns = 0;  // generator left its wait
    std::int64_t call_end_ns = 0;    // traced requests only
    ResponseTiming timing;
    /** pp2d expanded, prm heuristic evals or icp iterations. */
    double work = 0.0;
    bool converged = false;

    double latencyUs() const
    {
        if (refused || status != TicketStatus::Done)
            return kInf;
        return static_cast<double>(timing.done_ns - scheduled_ns) * 1e-3;
    }
    double execUs() const
    {
        return static_cast<double>(timing.done_ns - timing.start_ns) * 1e-3;
    }
};

/** One phase's requests, outcomes and sampled responses. */
struct Phase
{
    std::string name;
    std::vector<Record> records;
    /** Sampled request index -> request and response (checked later). */
    std::vector<std::size_t> sample_index;
    std::vector<Request> sample_request;
    std::vector<Response> sample_response;
    std::size_t backlog_at_end = 0;
    std::int64_t start_ns = 0, end_ns = 0;
};

std::vector<Request>
makeRequests(const World &world, std::size_t n, rtr::Rng &rng)
{
    std::vector<Request> requests;
    requests.reserve(n);
    const std::size_t total = kMix[0] + kMix[1] + kMix[2] + kMix[3];
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t pick = rng.index(total);
        int type = 0;
        while (pick >= kMix[type])
            pick -= kMix[type++];
        requests.push_back(
            world.randomRequest(static_cast<RequestType>(type), rng));
    }
    return requests;
}

/** Choose the sampled indices of a phase before its clock starts. */
void
chooseSample(Phase &phase, const std::vector<Request> &requests,
             rtr::Rng &rng)
{
    const double share = std::max(
        kSampleShare, static_cast<double>(kSampleFloor) /
                          static_cast<double>(std::max<std::size_t>(1, requests.size())));
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (rng.uniform() < share) {
            phase.sample_index.push_back(i);
            phase.sample_request.push_back(requests[i]);
        }
    }
    phase.sample_response.resize(phase.sample_index.size());
}

/** Fill a record from a collected ticket; keep the response if sampled. */
void
absorb(Phase &phase, std::size_t i, Completion &&done, std::size_t &next_sample)
{
    Record &r = phase.records[i];
    r.status = done.status;
    r.timing = done.timing;
    std::visit(
        [&](const auto &resp) {
            using R = std::decay_t<decltype(resp)>;
            if constexpr (std::is_same_v<R, Pp2dPlanResponse>)
                r.work = static_cast<double>(resp.expanded);
            else if constexpr (std::is_same_v<R, PrmQueryResponse>)
                r.work = static_cast<double>(resp.heuristic_evals);
            else if constexpr (std::is_same_v<R, IcpRegisterResponse>) {
                r.work = resp.iterations;
                r.converged = resp.converged;
            }
        },
        done.response);
    if (next_sample < phase.sample_index.size() &&
        phase.sample_index[next_sample] == i)
        phase.sample_response[next_sample++] = std::move(done.response);
}

/**
 * One open-loop step at @p rate for @p seconds: Poisson arrivals from
 * one generator (this thread), a collector thread that collects
 * tickets in order as they finish, then a drain of what is left.
 */
Phase
runStep(const World &world, const std::string &name, double rate,
        double seconds, rtr::Rng &rng, bool trace_odd)
{
    Phase phase;
    phase.name = name;
    const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
    std::vector<Request> requests = makeRequests(world, n, rng);
    chooseSample(phase, requests, rng);
    std::vector<std::int64_t> offset(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniform()) * 1e9 / rate;
        offset[i] = static_cast<std::int64_t>(t);
    }
    phase.records.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        phase.records[i].type = requestTypeOf(requests[i]);

    ServiceConfig config;
    config.workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    PlanningService svc(world, config);
    svc.start();

    std::vector<Ticket> tickets(n);
    std::atomic<std::size_t> issued{0};
    std::thread collector([&] {
        std::size_t next_sample = 0;
        for (std::size_t i = 0; i < n;) {
            if (i >= issued.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                continue;
            }
            if (tickets[i].id == 0) {
                phase.records[i].refused = true;
                if (next_sample < phase.sample_index.size() &&
                    phase.sample_index[next_sample] == i)
                    ++next_sample;
                ++i;
                continue;
            }
            const TicketStatus s = svc.poll(tickets[i]);
            if (s != TicketStatus::Done && s != TicketStatus::Cancelled) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                continue;
            }
            absorb(phase, i, svc.collect(tickets[i]), next_sample);
            ++i;
        }
    });

    phase.start_ns = nowNs() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
        Record &r = phase.records[i];
        r.scheduled_ns = phase.start_ns + offset[i];
        std::int64_t now = nowNs();
        while (now < r.scheduled_ns) {
            if (r.scheduled_ns - now > 200'000)
                std::this_thread::sleep_for(std::chrono::nanoseconds(
                    r.scheduled_ns - now - 100'000));
            else
                std::this_thread::yield();
            now = nowNs();
        }
        r.call_start_ns = now;
        tickets[i] = svc.trySubmit(std::move(requests[i]));
        if (trace_odd && i % 2 == 1)
            r.call_end_ns = nowNs();
        issued.store(i + 1, std::memory_order_release);
    }
    const ServiceStats at_end = svc.stats();
    phase.backlog_at_end =
        static_cast<std::size_t>(at_end.submitted - at_end.completed);
    svc.shutdown(PlanningService::Shutdown::Drain);
    collector.join();
    phase.end_ns = nowNs();
    return phase;
}

/** Pre-queue a backlog, start the workers and time the drain. */
Phase
runDrain(const World &world, rtr::Rng &rng, double &rate_per_s)
{
    Phase phase;
    phase.name = "drain";
    std::vector<Request> requests = makeRequests(world, kDrainRequests, rng);
    chooseSample(phase, requests, rng);
    phase.records.resize(requests.size());
    ServiceConfig config;
    config.workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    PlanningService svc(world, config);
    std::vector<Ticket> tickets;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        phase.records[i].type = requestTypeOf(requests[i]);
        tickets.push_back(svc.trySubmit(std::move(requests[i])));
    }
    phase.start_ns = nowNs();
    svc.start();
    svc.shutdown(PlanningService::Shutdown::Drain);
    phase.end_ns = nowNs();
    rate_per_s = static_cast<double>(requests.size()) /
                 (static_cast<double>(phase.end_ns - phase.start_ns) * 1e-9);
    std::size_t next_sample = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Record &r = phase.records[i];
        r.scheduled_ns = phase.start_ns;
        if (tickets[i].id == 0) {
            r.refused = true;
            continue;
        }
        absorb(phase, i, svc.collect(tickets[i]), next_sample);
    }
    return phase;
}

/** The SLO verdict of one step. */
struct Verdict
{
    bool valid = false;   // the generator kept up
    bool pass = false;    // p99 <= SLO, no backlog growth, none refused
    double p99_us = kInf;
    double gen_lag_p99_us = 0.0;
};

Verdict
judge(const Phase &phase, double rate)
{
    Verdict v;
    std::vector<double> latency, lag;
    for (const Record &r : phase.records) {
        latency.push_back(r.latencyUs());
        lag.push_back(static_cast<double>(r.call_start_ns - r.scheduled_ns) *
                      1e-3);
    }
    v.gen_lag_p99_us = quantile(lag, 0.99).value_or(kInf);
    v.valid = v.gen_lag_p99_us <= kMaxGenLagUs;
    v.p99_us = quantile(latency, 0.99).value_or(kInf);
    // A backlog of more than one SLO's worth of arrivals at the end of
    // the arrivals means the queue was growing.
    const double backlog_limit = std::max(32.0, rate * kSloUs * 1e-6);
    v.pass = v.valid && v.p99_us <= kSloUs &&
             static_cast<double>(phase.backlog_at_end) <= backlog_limit;
    return v;
}

std::vector<double>
percentilePair(std::vector<double> v)
{
    return {median(v), quantile(v, 0.99).value_or(0.0)};
}

} // namespace

void
runServiceMix(Run &run)
{
    // World: build 31 times, report the median, keep the last.
    std::vector<double> setup_s;
    std::unique_ptr<World> world;
    for (int i = 0; i < 31; ++i) {
        world.reset();
        const std::int64_t t0 = nowNs();
        world = std::make_unique<World>();
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    rtr::setParallelThreads(kWorkers);
    const double S = run.opt.seconds;
    // Each phase draws its requests from its own stream, so the inputs
    // of a phase do not depend on how many requests earlier phases drew.
    std::uint64_t stream = 100;
    auto phaseRng = [&] { return rtr::Rng(rtr::splitSeed(run.opt.seed, ++stream)); };

    std::vector<Phase> phases;
    rtr::Rng rng = phaseRng();
    phases.push_back(runStep(*world, "warm-up", kFixedRate, 0.05 * S, rng, false));
    // The process peak would follow how far the rate search climbs; the
    // peak during the fixed step does not.
    resetResidentPeak();
    rng = phaseRng();
    phases.push_back(runStep(*world, "fixed-20k", kFixedRate, 0.4 * S, rng,
                             run.tracer.enabled()));
    run.e2e.set("peak_rss_mb", "MB", residentPeakMb(), 1);
    const std::size_t fixed_phase = phases.size() - 1;
    const Verdict fixed_verdict = judge(phases.back(), kFixedRate);

    // Rate search: bisection between a passing and a failing rate.
    double lo = fixed_verdict.pass ? kFixedRate : kSearchLo;
    double hi = kSearchHi;
    for (int step = 0; step < kSearchSteps; ++step) {
        const double rate = 0.5 * (lo + hi);
        rng = phaseRng();
        phases.push_back(runStep(*world, "search-" + std::to_string(step),
                                 rate, 0.05 * S, rng, false));
        const Verdict v = judge(phases.back(), rate);
        std::cout << "  search step " << step << ": " << rate
                  << "/s p99 " << v.p99_us << " us, backlog "
                  << phases.back().backlog_at_end << ", gen lag p99 "
                  << v.gen_lag_p99_us << " us -> "
                  << (!v.valid ? "invalid (generator behind)"
                               : v.pass ? "pass" : "fail")
                  << "\n";
        (v.pass ? lo : hi) = rate;
    }
    const double slo_rate = lo;

    std::vector<double> drain_rates;
    for (int i = 0; i < 3; ++i) {
        double rate = 0.0;
        rng = phaseRng();
        phases.push_back(runDrain(*world, rng, rate));
        drain_rates.push_back(rate);
    }
    rtr::setParallelThreads(0);
    const Phase &fixed = phases[fixed_phase];

    // ---- Output checks (after the clock). Each request is one
    // operation: it fails when refused or unfinished, or when it is in
    // its phase's seeded sample and its response fails the oracle.
    // Refusals under the rate search's deliberate overload are the
    // service's backpressure, not failures. ----
    Ledger &ledger = run.ledger;
    std::vector<std::pair<std::size_t, std::size_t>> sampled;  // phase, slot
    for (std::size_t p = 0; p < phases.size(); ++p)
        for (std::size_t s = 0; s < phases[p].sample_index.size(); ++s)
            if (phases[p].records[phases[p].sample_index[s]].status ==
                TicketStatus::Done)
                sampled.emplace_back(p, s);
    std::vector<std::string> problems(sampled.size());
    {
        std::vector<std::thread> checkers;
        const std::size_t threads = 4;
        for (std::size_t w = 0; w < threads; ++w) {
            checkers.emplace_back([&, w] {
                OracleScratch scratch(*world);
                for (std::size_t i = w; i < sampled.size(); i += threads) {
                    const Phase &ph = phases[sampled[i].first];
                    problems[i] = checkResponse(
                        *world, ph.sample_request[sampled[i].second],
                        ph.sample_response[sampled[i].second], scratch);
                }
            });
        }
        for (std::thread &t : checkers)
            t.join();
    }
    std::size_t next = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const Phase &phase = phases[p];
        const bool overload = phase.name.rfind("search-", 0) == 0;
        std::size_t slot = 0;
        for (std::size_t i = 0; i < phase.records.size(); ++i) {
            const Record &r = phase.records[i];
            std::string problem = checkTicketOutcome(r.refused, r.status);
            while (slot < phase.sample_index.size() &&
                   phase.sample_index[slot] < i)
                ++slot;
            if (problem.empty() && slot < phase.sample_index.size() &&
                phase.sample_index[slot] == i)
                problem = problems[next++];
            if (r.refused && overload)
                continue;
            ledger.check(problem.empty(), phase.name + " request " +
                                              std::to_string(i) + ": " +
                                              problem);
        }
    }

    // Replay a sampled subset of the fixed step at 1 and 3 workers.
    std::vector<std::size_t> replay;
    for (std::size_t s = 0; s < fixed.sample_index.size() &&
                            replay.size() < kReplayRequests;
         ++s) {
        if (fixed.records[fixed.sample_index[s]].status == TicketStatus::Done)
            replay.push_back(s);
    }
    for (std::size_t workers : {std::size_t(1), kWorkers}) {
        rtr::setParallelThreads(kWorkers);
        ServiceConfig config;
        config.workers = workers;
        config.queue_capacity = 2 * kReplayRequests;
        PlanningService svc(*world, config);
        std::vector<Ticket> tickets;
        for (std::size_t s : replay)
            tickets.push_back(svc.submit(fixed.sample_request[s]));
        svc.start();
        svc.shutdown(PlanningService::Shutdown::Drain);
        for (std::size_t j = 0; j < replay.size(); ++j) {
            const Completion done = svc.collect(tickets[j]);
            ledger.check(sameResponse(done.response,
                                      fixed.sample_response[replay[j]]),
                         "replay at " + std::to_string(workers) +
                             " workers differs for fixed-20k request " +
                             std::to_string(fixed.sample_index[replay[j]]));
        }
        rtr::setParallelThreads(0);
    }

    // ---- Metrics of the fixed step ----
    std::vector<double> latency, perception_ms, decision_ms, queue_us, lag_us,
        submit_us, traced_lat, untraced_lat;
    std::vector<double> exec_by_type[4];
    double exec_sum_us = 0.0, pp2d_work = 0.0, prm_work = 0.0, icp_work = 0.0;
    std::size_t counts[4] = {0, 0, 0, 0}, converged = 0, refused = 0;
    for (std::size_t i = 0; i < fixed.records.size(); ++i) {
        const Record &r = fixed.records[i];
        latency.push_back(r.latencyUs());
        lag_us.push_back(static_cast<double>(r.call_start_ns - r.scheduled_ns) *
                         1e-3);
        if (r.refused) {
            ++refused;
            continue;
        }
        if (r.status != TicketStatus::Done)
            continue;
        const auto t = static_cast<std::size_t>(r.type);
        ++counts[t];
        exec_by_type[t].push_back(r.execUs());
        exec_sum_us += r.execUs();
        queue_us.push_back(static_cast<double>(r.timing.start_ns -
                                               r.timing.submit_ns) *
                           1e-3);
        (r.type == RequestType::NnBatch || r.type == RequestType::IcpRegister
             ? perception_ms
             : decision_ms)
            .push_back(r.execUs() * 1e-3);
        if (r.type == RequestType::Pp2dPlan)
            pp2d_work += r.work;
        if (r.type == RequestType::PrmQuery)
            prm_work += r.work;
        if (r.type == RequestType::IcpRegister) {
            icp_work += r.work;
            converged += r.converged ? 1 : 0;
        }
        if (run.tracer.enabled()) {
            const bool traced = i % 2 == 1;
            (traced ? traced_lat : untraced_lat).push_back(r.latencyUs());
            if (traced)
                submit_us.push_back(
                    static_cast<double>(r.call_end_ns - r.call_start_ns) * 1e-3);
        }
    }
    const std::size_t n = fixed.records.size();
    const double nd = static_cast<double>(n);
    run.e2e.set("setup_s", "s", median(setup_s), setup_s.size());
    run.e2e.set("perception_roi_ms", "ms", quietWindowMedian(perception_ms),
                perception_ms.size());
    run.e2e.set("planning_control_roi_ms", "ms",
                quietWindowMedian(decision_ms), decision_ms.size());
    run.e2e.set("work_p50_ms", "ms", quietWindowMedian(latency) * 1e-3, n);

    Metrics &L = run.layers;
    L.set("req_p50_us", "us", median(latency), n);
    if (auto tl = tail(latency))
        L.set("req_tail_us", "us", tl->value, n);
    L.set("slo_rate_per_s", "1/s", slo_rate, kSearchSteps);
    L.set("drain_rate_per_s", "1/s", median(drain_rates), drain_rates.size());
    L.set("planning_roi_ms", "ms", median(decision_ms), decision_ms.size());
    if (auto q = quantile(lag_us, 0.99))
        L.set("bench.gen_lag_us.p99", "us", *q, n);
    const char *type_names[4] = {"pp2d", "prm", "nn", "icp"};
    for (std::size_t t = 0; t < 4; ++t) {
        const std::vector<double> p = percentilePair(exec_by_type[t]);
        const std::string base = std::string("service.exec_us.") + type_names[t];
        L.set(base + ".p50", "us", p[0], exec_by_type[t].size());
        L.set(base + ".p99", "us", p[1], exec_by_type[t].size());
    }
    const std::vector<double> q = percentilePair(queue_us);
    L.set("service.queue_wait_us.p50", "us", q[0], queue_us.size());
    L.set("service.queue_wait_us.p99", "us", q[1], queue_us.size());
    const double span_s =
        static_cast<double>(fixed.end_ns - fixed.start_ns) * 1e-9;
    L.set("service.worker_busy_ratio", "ratio",
          exec_sum_us * 1e-6 / (static_cast<double>(kWorkers) * span_s), n);
    L.set("service.rejected_full", "count", static_cast<double>(refused), n);
    L.set("service.pp2d_expanded", "count",
          pp2d_work / static_cast<double>(std::max<std::size_t>(1, counts[0])),
          counts[0]);
    L.set("service.prm_heuristic_evals", "count",
          prm_work / static_cast<double>(std::max<std::size_t>(1, counts[1])),
          counts[1]);
    L.set("service.icp_converged_ratio", "ratio",
          static_cast<double>(converged) /
              static_cast<double>(std::max<std::size_t>(1, counts[3])),
          counts[3]);
    L.set("search.expanded", "count", pp2d_work / nd, n);
    L.set("pointcloud.icp_iterations", "count", icp_work / nd, n);
    double exec_ms_by_type[4] = {0, 0, 0, 0};
    for (std::size_t t = 0; t < 4; ++t)
        for (double us : exec_by_type[t])
            exec_ms_by_type[t] += us * 1e-3;
    L.set("search.ms", "ms", exec_ms_by_type[0] / nd, n);
    L.set("pointcloud.nn_ms", "ms", exec_ms_by_type[2] / nd, n);

    std::cout << "service-mix: fixed step " << n << " requests at "
              << kFixedRate << "/s (p99 " << fixed_verdict.p99_us
              << " us), slo rate " << slo_rate << "/s, drain "
              << median(drain_rates) << "/s, " << sampled.size()
              << " responses checked, " << replay.size()
              << " replayed at 1 and " << kWorkers << " workers\n";
    if (!run.tracer.enabled())
        return;

    const std::vector<double> sp = percentilePair(submit_us);
    L.set("service.submit_us.p50", "us", sp[0], submit_us.size());
    L.set("service.submit_us.p99", "us", sp[1], submit_us.size());
    const char *type_layer[4] = {"search", "plan", "pointcloud", "pointcloud"};
    for (std::size_t i = 1; i < fixed.records.size(); i += 2) {
        const Record &r = fixed.records[i];
        Tracer &tr = run.tracer;
        tr.countUnit();
        const std::int64_t end =
            r.status == TicketStatus::Done ? r.timing.done_ns : r.call_end_ns;
        const int root = tr.add("bench", "request", i, -1, r.scheduled_ns, end);
        tr.add("bench", "gen_lag", i, root, r.scheduled_ns, r.call_start_ns);
        if (r.status != TicketStatus::Done) {
            tr.add("service", "submit", i, root, r.call_start_ns, r.call_end_ns);
            continue;
        }
        tr.add("service", "submit", i, root, r.call_start_ns, r.timing.submit_ns);
        tr.add("service", "queue", i, root, r.timing.submit_ns, r.timing.start_ns);
        const auto t = static_cast<std::size_t>(r.type);
        tr.add(type_layer[t], std::string("exec.") + type_names[t], i, root,
               r.timing.start_ns, r.timing.done_ns);
    }
    run.untraced_unit_ns = mean(untraced_lat) * 1e3;
    L.set("bench.trace_overhead_ratio", "ratio",
          mean(traced_lat) / mean(untraced_lat), traced_lat.size());
}

} // namespace perfbench
