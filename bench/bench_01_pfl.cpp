/**
 * @file
 * §V.01 pfl — ray-casting share across five building regions (paper:
 * 67-78% of execution time), plus the Fig. 2 convergence series and
 * the hierarchical ray-cast engine's speedup over the scalar DDA.
 *
 * The paper-claim table runs the scalar engine (probe every traversed
 * cell — the cost profile the paper measured); the engine comparison
 * then shows what the bitboard/pyramid engine does to the same
 * workload. Warmup runs (bench_common.h) keep first-touch faults out
 * of the reported times.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    rtr::bench::Harness harness(argc, argv);
    rtr::bench::requireKnownOptions(argc, argv);
    using namespace rtr;
    using namespace rtr::bench;

    banner("01.pfl — particle filter localization",
           "ray-casting is 67%-78% of execution time across 5 regions; "
           "particles converge (Fig. 2)");

    Table table({"region", "raycast share", "weight share",
                 "final err (m)", "spread: start -> end (m)",
                 "ROI (ms)"});
    RunningStat raycast;
    for (int region = 0; region < 5; ++region) {
        KernelReport report = runKernelWarm(
            "pfl",
            {"--region", std::to_string(region), "--raycast", "scalar"});
        raycast.add(report.metrics.at("raycast_fraction"));
        const auto &spread = report.series.at("spread");
        table.addRow({std::to_string(region),
                      Table::pct(report.metrics.at("raycast_fraction")),
                      Table::pct(report.phaseFraction("weight")),
                      Table::num(report.metrics.at("final_error_m"), 2),
                      Table::num(spread.front(), 2) + " -> " +
                          Table::num(spread.back(), 2),
                      Table::num(report.roi_seconds * 1e3, 0)});
    }
    table.print();
    std::cout << "\nmeasured ray-casting share: "
              << Table::pct(raycast.min()) << " - "
              << Table::pct(raycast.max()) << "   (paper: 67% - 78%)\n";

    // Engine comparison on the default region: identical weights and
    // metrics, different occupancy-query cost.
    std::cout << "\nray-cast engine comparison (region 2, identical "
                 "results):\n";
    Table engines({"engine", "ROI (ms)", "raycast share",
                   "probes/ray", "final err (m)"});
    double scalar_roi = 0.0, hier_roi = 0.0;
    for (const std::string engine : {"scalar", "hier"}) {
        KernelReport report =
            runKernelWarm("pfl", {"--raycast", engine});
        (engine == "scalar" ? scalar_roi : hier_roi) = report.roi_seconds;
        engines.addRow(
            {engine, Table::num(report.roi_seconds * 1e3, 0),
             Table::pct(report.metrics.at("raycast_fraction")),
             Table::num(report.metrics.at("probes_per_ray_" + engine), 1),
             Table::num(report.metrics.at("final_error_m"), 2)});
    }
    engines.print();
    if (hier_roi > 0.0) {
        std::cout << "pfl ROI speedup (scalar -> hier): "
                  << Table::num(scalar_roi / hier_roi, 2) << "x\n";
    }

    // Fig. 2 series detail for the default region.
    KernelReport fig2 = runKernelWarm("pfl");
    std::cout << "\nFig. 2 particle spread over time (m): "
              << seriesSummary(fig2.series.at("spread")) << "\n";
    return 0;
}
