/**
 * @file
 * Workload `table1`: the paper's own evaluation as a closed loop.
 *
 * The 16 kernels run back to back at the bench/bench_table1.cpp
 * configurations and --threads 2, in rounds, after one untimed warm-up
 * round. The timed rounds cycle through kDecks input decks; a deck gives
 * the 14 seeded kernels input seeds derived from the workload seed (dmp
 * and mpc take none), outside the kernel's known-defect seeds. A
 * kernel's figure is the median over decks of each deck's fastest
 * repetition (deckFigure). The first deck is then replayed at
 * --threads 1 and must reproduce every non-timing output bit for bit.
 * Last, one known-defect input, chosen from the workload seed, runs
 * outside the counts and its outcome is printed.
 */

#include <malloc.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>

#include "bench.h"
#include "grid/raycast.h"
#include "kernels/registry.h"
#include "oracles.h"

namespace perfbench {

namespace {

using rtr::KernelReport;

/** Kernel configuration (bench/bench_table1.cpp) and benchmark role. */
struct Row
{
    const char *kernel;
    std::vector<std::string> overrides;
    /** Layer that the kernel's ROI outside its mapped phases counts to. */
    const char *home_layer;
};

const std::vector<Row> kRows = {
    {"pfl", {"--particles", "800", "--steps", "50"}, "perception"},
    {"ekfslam", {}, "perception"},
    {"srec", {"--frames", "8"}, "perception"},
    {"pp2d", {"--map-size", "512"}, "search"},
    {"pp3d", {"--map-size", "128"}, "search"},
    {"movtar", {"--env-size", "96"}, "plan"},
    {"prm", {}, "plan"},
    {"rrt", {}, "plan"},
    {"rrtstar", {"--samples", "2500"}, "plan"},
    {"rrtpp", {}, "plan"},
    {"sym-blkw", {}, "symbolic"},
    {"sym-fext", {}, "symbolic"},
    {"dmp", {}, "control"},
    {"mpc", {"--ref-points", "60"}, "control"},
    {"cem", {"--repeats", "500"}, "control"},
    {"bo", {"--candidates", "8000"}, "control"},
};

/** Kernel phases whose time belongs to a layer other than the home one. */
struct PhaseLayer
{
    const char *kernel;
    const char *phase;
    const char *layer;
};

const std::vector<PhaseLayer> kPhaseLayers = {
    {"pfl", "raycast", "grid"},
    {"ekfslam", "matrix-ops", "linalg"},
    {"srec", "normals-nn-build", "pointcloud"},
    {"srec", "normals-nn", "pointcloud"},
    {"srec", "icp-nn-build", "pointcloud"},
    {"srec", "icp-nn", "pointcloud"},
    {"srec", "normals-eigen", "linalg"},
    {"pp2d", "collision", "grid"},
    {"pp3d", "collision", "grid"},
    {"movtar", "graph-search", "search"},
    {"prm", "graph-search", "search"},
    {"rrt", "nn-search", "pointcloud"},
    {"rrtstar", "nn-search", "pointcloud"},
    {"rrtpp", "nn-search", "pointcloud"},
    {"bo", "gp-fit", "linalg"},
};

/**
 * Worker threads of the timed rounds. Below the host's core count, so a
 * core taken by another process stalls fewer fork-join regions.
 */
constexpr std::size_t kThreads = 2;

/**
 * Input decks of a run. Timed round r runs deck (r - 1) % kDecks, so
 * each deck repeats about every kDecks rounds (about 7 s), and a deck's
 * fastest repetition shows the inputs' cost with the host's slow
 * stretches left out. Odd, so that a traced run (every second round
 * traced) traces every deck.
 */
constexpr std::size_t kDecks = 5;

/** Kernels whose CLI takes --threads (the rtr::parallel users). */
const std::set<std::string> kThreaded = {"pfl", "srec", "prm",
                                         "mpc", "cem", "bo"};
/** The pool users named by util.pool_speedup. */
const std::set<std::string> kPoolSpeedup = {"pfl", "srec", "prm", "mpc",
                                            "cem"};
/** Arm kernels: the derived seed is both planner and instance seed. */
const std::set<std::string> kArm = {"prm", "rrt", "rrtstar", "rrtpp"};
const std::set<std::string> kUnseeded = {"dmp", "mpc"};

std::vector<std::string>
overridesFor(const Row &row, std::uint64_t kernel_seed, std::size_t threads)
{
    std::vector<std::string> args = row.overrides;
    if (!kUnseeded.count(row.kernel)) {
        args.push_back("--seed");
        args.push_back(std::to_string(kernel_seed));
        if (kArm.count(row.kernel)) {
            args.push_back("--instance-seed");
            args.push_back(std::to_string(kernel_seed));
        }
    }
    if (kThreaded.count(row.kernel)) {
        args.push_back("--threads");
        args.push_back(std::to_string(threads));
    }
    return args;
}

/** One kernel execution as the benchmark saw it. */
struct Execution
{
    KernelReport report;
    std::uint64_t seed = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Growth of the resident set at its peak during this run (MiB). */
    double peak_growth_mb = 0.0;

    double wallMs() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
    double roiMs() const { return report.roi_seconds * 1e3; }
};

Execution
execute(const rtr::Kernel &kernel, const Row &row, std::uint64_t seed,
        std::size_t threads)
{
    Execution e;
    e.seed = kUnseeded.count(row.kernel) ? 0 : seed;
    const std::vector<std::string> args =
        overridesFor(row, seed, threads);
    // Hand freed heap back first, so the peak does not depend on what
    // earlier kernels left in the allocator.
    malloc_trim(0);
    resetResidentPeak();
    const double resident_before = residentMb();
    e.start_ns = nowNs();
    e.report = kernel.runWithDefaults(args);
    e.end_ns = nowNs();
    e.peak_growth_mb = residentPeakMb() - resident_before;
    return e;
}

/** Record a kernel's spans: kernel -> (setup, roi -> mapped phases). */
void
traceExecution(Tracer &tracer, const Row &row, const Execution &e,
               std::uint64_t unit, int round_span)
{
    const auto roi_ns = static_cast<std::int64_t>(e.report.roi_seconds * 1e9);
    const std::int64_t setup_end =
        e.start_ns + std::max<std::int64_t>(0, (e.end_ns - e.start_ns) - roi_ns);
    const int kernel_span =
        tracer.add("bench", std::string("kernel.") + row.kernel, unit,
                   round_span, e.start_ns, e.end_ns);
    tracer.add("setup", "setup", unit, kernel_span, e.start_ns, setup_end);
    const int roi_span =
        tracer.add(row.home_layer, "roi", unit, kernel_span, setup_end,
                   e.end_ns);
    std::int64_t cursor = setup_end;
    for (const PhaseLayer &pl : kPhaseLayers) {
        if (std::string(pl.kernel) != row.kernel)
            continue;
        const std::int64_t ns = e.report.profiler.phaseNs(pl.phase);
        tracer.add(pl.layer, pl.phase, unit, roi_span, cursor, cursor + ns);
        cursor += ns;
    }
}

/** Quality and success check of one execution. */
void
checkExecution(Ledger &ledger, const Row &row, const Execution &e)
{
    const std::string problem = checkKernelQuality(row.kernel, e.report);
    ledger.check(problem.empty(),
                 std::string(row.kernel) + " seed " + std::to_string(e.seed) +
                     ": " + problem);
}

} // namespace

void
runTable1(Run &run)
{
    std::vector<std::unique_ptr<rtr::Kernel>> kernels;
    for (const Row &row : kRows)
        kernels.push_back(rtr::makeKernel(row.kernel));

    // Per (kernel, quantity) samples over timed rounds, by deck.
    std::map<std::string, std::vector<std::vector<double>>> samples;
    auto sample = [&](const std::string &kernel, const std::string &what,
                      std::size_t deck, double value) {
        std::vector<std::vector<double>> &decks = samples[kernel + "/" + what];
        decks.resize(kDecks);
        decks[deck].push_back(value);
    };
    auto med = [&](const std::string &kernel, const std::string &what) {
        return deckFigure(samples[kernel + "/" + what]);
    };

    std::vector<Execution> replay_base;  // round 1, kThreads threads
    std::vector<double> traced_wall, untraced_wall;
    std::int64_t t_begin = 0;  // set once the warm-up round is done
    const double resident_at_start = residentMb();
    std::size_t timed_rounds = 0;
    for (std::size_t round = 0;; ++round) {
        const bool warmup = round == 0;
        if (!warmup && timed_rounds >= kDecks &&
            static_cast<double>(nowNs() - t_begin) * 1e-9 >= run.opt.seconds)
            break;
        // Input stream 0 is the warm-up's, 1..kDecks the decks'.
        const std::size_t deck = warmup ? 0 : (round - 1) % kDecks;
        const std::size_t stream = warmup ? 0 : deck + 1;
        const bool traced = run.tracer.enabled() && !warmup && round % 2 == 0;
        std::vector<Execution> executions;
        const std::int64_t round_start = nowNs();
        for (std::size_t k = 0; k < kRows.size(); ++k) {
            executions.push_back(
                execute(*kernels[k], kRows[k],
                        deriveKernelSeed(kRows[k].kernel, run.opt.seed, stream, k),
                        kThreads));
        }
        const std::int64_t round_end = nowNs();
        for (std::size_t k = 0; k < kRows.size(); ++k)
            checkExecution(run.ledger, kRows[k], executions[k]);
        if (warmup) {
            t_begin = nowNs();
            continue;
        }
        ++timed_rounds;
        if (run.tracer.enabled())
            (traced ? traced_wall : untraced_wall)
                .push_back(static_cast<double>(round_end - round_start));
        if (traced) {
            run.tracer.countUnit();
            const int root = run.tracer.add("bench", "round", round, -1,
                                            round_start, round_end);
            for (std::size_t k = 0; k < kRows.size(); ++k)
                traceExecution(run.tracer, kRows[k], executions[k], round,
                               root);
        }
        for (std::size_t k = 0; k < kRows.size(); ++k) {
            const std::string name = kRows[k].kernel;
            const Execution &e = executions[k];
            sample(name, "roi_ms", deck, e.roiMs());
            sample(name, "setup_ms", deck, e.wallMs() - e.roiMs());
            sample(name, "peak_growth_mb", deck, e.peak_growth_mb);
            for (const auto &phase : e.report.profiler.phases()) {
                sample(name, phase.name + "_ms", deck,
                       static_cast<double>(phase.ns) * 1e-6);
                sample(name, phase.name + "_count", deck,
                       static_cast<double>(phase.count));
            }
            for (const auto &[metric, value] : e.report.metrics)
                sample(name, metric, deck, value);
        }
        if (replay_base.empty())
            replay_base = std::move(executions);
    }

    // Replay round 1 (deck 0) at --threads 1: non-timing outputs must
    // be equal.
    double pool_roi_timed = 0.0, pool_roi_single = 0.0;
    for (std::size_t k = 0; k < kRows.size(); ++k) {
        const Execution single =
            execute(*kernels[k], kRows[k],
                    deriveKernelSeed(kRows[k].kernel, run.opt.seed, 1, k), 1);
        const std::string diff =
            compareKernelOutputs(replay_base[k].report, single.report);
        run.ledger.check(diff.empty(),
                         std::string(kRows[k].kernel) + " seed " +
                             std::to_string(replay_base[k].seed) +
                             " differs at --threads 1: " + diff);
        if (kPoolSpeedup.count(kRows[k].kernel)) {
            pool_roi_timed += replay_base[k].roiMs();
            pool_roi_single += single.roiMs();
        }
    }

    // ---- End-to-end: stage sums of per-kernel deck figures ----
    std::map<rtr::Stage, double> stage_roi;
    double setup_ms = 0.0;
    for (std::size_t k = 0; k < kRows.size(); ++k) {
        const std::string name = kRows[k].kernel;
        stage_roi[kernels[k]->stage()] += med(name, "roi_ms");
        setup_ms += med(name, "setup_ms");
        run.layers.set("kernel." + name + ".roi_ms", "ms", med(name, "roi_ms"),
                       timed_rounds);
    }
    const double perception = stage_roi[rtr::Stage::Perception];
    const double planning = stage_roi[rtr::Stage::Planning];
    const double control = stage_roi[rtr::Stage::Control];
    const std::size_t n = timed_rounds;
    // The process peak follows the heaviest input drawn and what the
    // allocator and thread-local caches kept from earlier kernels; the
    // resident set at start plus the largest per-kernel growth
    // does not.
    double growth_mb = 0.0;
    for (const Row &row : kRows)
        growth_mb = std::max(growth_mb, med(row.kernel, "peak_growth_mb"));
    run.e2e.set("peak_rss_mb", "MB", resident_at_start + growth_mb, n);
    run.e2e.set("setup_s", "s", setup_ms * 1e-3, n);
    run.e2e.set("perception_roi_ms", "ms", perception, n);
    run.e2e.set("planning_control_roi_ms", "ms", planning + control, n);
    run.e2e.set("work_p50_ms", "ms", perception + planning + control, n);

    // ---- Per-layer (per round: sums of per-kernel deck figures) ----
    Metrics &L = run.layers;
    L.set("planning_roi_ms", "ms", planning, n);
    L.set("control_roi_ms", "ms", control, n);
    L.set("grid.raycast_ms", "ms", med("pfl", "raycast_ms"), n);
    L.set("grid.rays", "count", med("pfl", "rays_cast"), n);
    L.set("grid.probes_per_ray", "count",
          med("pfl", std::string("probes_per_ray_") +
                         rtr::rayEngineName(rtr::defaultRayEngine())),
          n);
    L.set("grid.collision_ms", "ms",
          med("pp2d", "collision_ms") + med("pp3d", "collision_ms"), n);
    L.set("grid.collision_checks", "count",
          med("pp2d", "collision_checks") + med("pp3d", "collision_checks"), n);
    L.set("search.ms", "ms",
          med("pp2d", "roi_ms") - med("pp2d", "collision_ms") +
              med("pp3d", "roi_ms") - med("pp3d", "collision_ms") +
              med("movtar", "graph-search_ms") + med("prm", "graph-search_ms"),
          n);
    double expanded = 0.0, stale = 0.0, peak_open = 0.0;
    for (const char *k : {"pp2d", "pp3d", "movtar"}) {
        expanded += med(k, "expanded");
        stale += med(k, "stale_pops");
        peak_open = std::max(peak_open, med(k, "peak_open_list"));
    }
    L.set("search.expanded", "count", expanded, n);
    L.set("search.stale_pop_ratio", "ratio", stale / (expanded + stale), n);
    L.set("search.peak_open", "count", peak_open, n);
    L.set("pointcloud.nn_ms", "ms",
          med("srec", "normals-nn_ms") + med("srec", "icp-nn_ms") +
              med("rrt", "nn-search_ms") + med("rrtstar", "nn-search_ms") +
              med("rrtpp", "nn-search_ms"),
          n);
    L.set("pointcloud.nn_build_ms", "ms",
          med("srec", "normals-nn-build_ms") + med("srec", "icp-nn-build_ms"),
          n);
    L.set("pointcloud.icp_iterations", "count", med("srec", "icp-nn_count"), n);
    L.set("linalg.ms", "ms",
          med("ekfslam", "matrix-ops_ms") + med("srec", "normals-eigen_ms") +
              med("bo", "gp-fit_ms"),
          n);
    L.set("control.rollout_ms", "ms",
          med("dmp", "rollout_ms") + med("mpc", "optimize_ms") +
              med("cem", "evaluate_ms") + med("bo", "acquisition_ms"),
          n);
    L.set("control.sort_ms", "ms", med("cem", "sort_ms") + med("bo", "sort_ms"),
          n);
    L.set("control.cost_evals", "count", med("mpc", "cost_evals"), n);
    L.set("plan.rrt_accept_ratio", "ratio",
          (med("rrt", "tree_size") + med("rrtstar", "tree_size")) /
              (med("rrt", "samples") + med("rrtstar", "samples")),
          n);
    L.set("plan.prm_offline_ms", "ms", med("prm", "offline_seconds") * 1e3, n);
    L.set("symbolic.ms", "ms",
          med("sym-blkw", "roi_ms") + med("sym-fext", "roi_ms"), n);
    L.set("symbolic.generated", "count",
          med("sym-blkw", "generated") + med("sym-fext", "generated"), n);
    L.set("symbolic.expanded", "count",
          med("sym-blkw", "expanded") + med("sym-fext", "expanded"), n);
    L.set("util.pool_speedup", "ratio", pool_roi_single / pool_roi_timed, 1);

    if (run.tracer.enabled()) {
        run.untraced_unit_ns = mean(untraced_wall);
        L.set("bench.trace_overhead_ratio", "ratio",
              mean(traced_wall) / mean(untraced_wall), traced_wall.size());
    }
    // The defect stays visible without making the counts depend on how
    // many rounds fit in the run.
    const DefectInput probe = knownDefectProbe(run.opt.seed);
    for (std::size_t k = 0; k < kRows.size(); ++k) {
        if (probe.kernel != kRows[k].kernel)
            continue;
        const std::string problem = checkKernelQuality(
            probe.kernel,
            execute(*kernels[k], kRows[k], probe.seed, kThreads).report);
        std::cout << "known defect " << probe.kernel << " seed " << probe.seed
                  << ": "
                  << (problem.empty() ? "passes now" : "still fails: " + problem)
                  << " (not counted)\n";
    }
    std::cout << "table1: " << timed_rounds << " timed rounds + 1 warm-up, "
              << "stage sums of per-kernel ROI: perception "
              << perception << " ms, planning " << planning
              << " ms, control " << control << " ms\n";
}

} // namespace perfbench
