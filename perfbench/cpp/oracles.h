/**
 * @file
 * Output checks of the benchmark. Each oracle recomputes or verifies a
 * result by a route that does not share the timed code path, and
 * returns an empty string when the output is right or a one-line
 * description of what is wrong. The self-tests feed each oracle a
 * corrupted output to show that it is caught.
 */

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include <cstdint>
#include <string>
#include <vector>

#include "arm/workspace.h"
#include "grid/footprint.h"
#include "kernels/kernel.h"
#include "search/grid_planner2d.h"
#include "service/request.h"
#include "service/service.h"
#include "service/world.h"

namespace perfbench {

/// @name table1
///@{
/** Kernel input seeds are drawn from [1, kKernelSeedRange]. */
constexpr std::uint64_t kKernelSeedRange = 256;

/**
 * Input seed of kernel @p kernel, row @p k, in @p round of a run with
 * @p seed: one of the seeds in [1, kKernelSeedRange] that is not a
 * known defect of the kernel, so that no operation of a timed round
 * fails on the commit that introduced this benchmark.
 */
std::uint64_t deriveKernelSeed(const std::string &kernel, std::uint64_t seed,
                               std::size_t round, std::size_t k);

/**
 * First difference between the non-timing metrics and series of two
 * reports, compared bit for bit; empty when they are identical.
 */
std::string compareKernelOutputs(const rtr::KernelReport &a,
                                 const rtr::KernelReport &b);

/**
 * Success flag and quality bounds of one kernel run; empty when the
 * run succeeded with every quality metric inside its bound.
 */
std::string checkKernelQuality(const std::string &kernel,
                               const rtr::KernelReport &report);

/** Inputs on which a kernel fails, and how. */
struct KnownDefect
{
    const char *kernel;
    const char *what;
    std::vector<std::uint64_t> seeds;
};

/**
 * Every failing kernel input in [1, kKernelSeedRange], found by running
 * each seeded kernel on every seed of the range. Timed rounds draw no
 * input from this list; each run probes one of them outside the counts
 * (knownDefectProbe).
 */
const std::vector<KnownDefect> &knownDefects();

bool isKnownDefect(const std::string &kernel, std::uint64_t seed);

/** One input of the known-defect list, chosen from the run's seed. */
struct DefectInput
{
    std::string kernel;
    std::uint64_t seed = 0;
};
DefectInput knownDefectProbe(std::uint64_t seed);
///@}

/// @name rt-loop bounds (metres)
///@{
/**
 * Every tick's particle-filter estimate must stay within the gross
 * bound, and most ticks within the tracking bound. The filter's
 * weighted-mean estimate includes the uniformly re-injected particles,
 * which on the 4 km map pull it metres off for some ticks of some
 * seeds (perfbench/README.md, known defects); a diverged filter is
 * hundreds of metres off.
 */
constexpr double kRtPflMaxErrorM = 100.0;
constexpr double kRtPflTrackErrorM = 0.5;
constexpr double kRtPflTrackShare = 0.9;
constexpr double kRtEkfMaxErrorM = 0.2;
constexpr double kRtMpcMaxErrorM = 0.25;
///@}

/// @name service-mix
///@{
/**
 * IcpRegister rmse bound (metres) that holds on every request of a sweep
 * of 6 million service-mix requests (800 thousand ICP): with the World's
 * 5-iteration cap about a third of the requests converge
 * (service.icp_converged_ratio), at rmse up to 0.120 (one in 2500 above
 * 0.1, where ICP stops improving short of the fit); the others stop at
 * the cap with rmse up to 0.125.
 */
constexpr double kIcpMaxRmse = 0.15;

/**
 * Per-thread clones of the World's mutable prototypes plus an
 * independent eps = 1 planner, so checks never touch the service's
 * worker state.
 */
struct OracleScratch
{
    explicit OracleScratch(const rtr::service::World &world);

    rtr::RectFootprint footprint;
    rtr::ArmCollisionChecker checker;
    rtr::GridPlanner2D optimal;
};

std::string checkPp2d(const rtr::service::World &world,
                      const rtr::service::Pp2dPlanRequest &request,
                      const rtr::service::Pp2dPlanResponse &response,
                      OracleScratch &scratch);

std::string checkPrm(const rtr::service::World &world,
                     const rtr::service::PrmQueryRequest &request,
                     const rtr::service::PrmQueryResponse &response,
                     OracleScratch &scratch);

std::string checkNn(const rtr::service::World &world,
                    const rtr::service::NnBatchRequest &request,
                    const rtr::service::NnBatchResponse &response);

std::string checkIcp(const rtr::service::IcpRegisterRequest &request,
                     const rtr::service::IcpRegisterResponse &response);

/** Dispatch on the request type; a type mismatch is a failure. */
std::string checkResponse(const rtr::service::World &world,
                          const rtr::service::Request &request,
                          const rtr::service::Response &response,
                          OracleScratch &scratch);

/** Whether two responses have the same canonical bytes (replay check). */
bool sameResponse(const rtr::service::Response &a,
                  const rtr::service::Response &b);

/** A refused or unfinished request is a failed operation. */
std::string checkTicketOutcome(bool refused,
                               rtr::service::TicketStatus status);
///@}

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
