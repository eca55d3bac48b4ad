/**
 * @file
 * Grid ray-casting (DDA traversal with hierarchical empty-region
 * skipping).
 *
 * The paper identifies ray-casting as the dominant cost of particle
 * filter localization (67-78% of execution time): every particle casts
 * one ray per laser beam against the map. This module is that
 * primitive.
 *
 * Two engines share one Amanatides-Woo stepping discipline:
 *
 *  - Scalar: probes the occupancy of every traversed cell (the
 *    pre-bitboard behaviour, kept as the identity oracle and as the
 *    paper-faithful profile reproduction).
 *  - Hierarchical: consults the grid's occupancy pyramid; once a cell
 *    lands in a provably-empty 8^k-cell block the traversal keeps
 *    stepping through the block without touching occupancy data at
 *    all. Over the mostly-empty corridor/street maps of the suite
 *    this removes an order of magnitude of cell probes per ray.
 *
 * Both engines execute the exact same floating-point comparisons and
 * accumulations in the same order per ray, so every returned range is
 * bitwise identical between them (asserted by the fuzz suites in
 * tests/test_raycast.cpp).
 */

#ifndef RTR_GRID_RAYCAST_H
#define RTR_GRID_RAYCAST_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "geom/pose.h"
#include "geom/vec2.h"
#include "grid/occupancy_grid2d.h"

namespace rtr {

/** Which occupancy-query engine a cast uses. */
enum class RayEngine
{
    /** Pyramid-accelerated empty-region skipping. */
    Hierarchical,
    /** Per-cell probing of every traversed cell (identity oracle). */
    Scalar,
};

/** Display name ("hier" / "scalar"). */
const char *rayEngineName(RayEngine engine);

/** Parse an engine name; returns false on anything else. */
bool parseRayEngine(std::string_view name, RayEngine &out);

/**
 * The production engine: hierarchical. Hier loses wall-clock to scalar
 * on this suite's small benchmark maps (EXPERIMENTS.md "Ray-cast
 * engine" has the sweep); it remains the default because its probe
 * elision is the quantity that converts to time on the cache-
 * constrained targets the paper studies. Explicit --raycast flags and
 * engine arguments pick the scalar engine per run.
 */
constexpr RayEngine
defaultRayEngine()
{
    return RayEngine::Hierarchical;
}

/** Traversal counters for one or more casts (diagnostics/benchmarks). */
struct RayCastStats
{
    /** DDA boundary crossings (cells entered after the start cell). */
    std::uint64_t steps = 0;
    /** Occupancy-data probes: per-cell tests plus pyramid block tests. */
    std::uint64_t probes = 0;
};

/**
 * Cast a ray from a world-space origin at the given angle and return the
 * distance to the first occupied cell (or max_range if none is hit).
 *
 * Uses Amanatides-Woo DDA so every traversed cell is entered exactly
 * once; the hierarchical engine skips the occupancy probes inside
 * pyramid-certified empty blocks.
 */
double castRay(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
               double max_range);

/** castRay on the scalar engine: probe every traversed cell. */
double castRayScalar(const OccupancyGrid2D &grid, const Vec2 &origin,
                     double angle, double max_range);

/** castRay with traversal counters accumulated into @p stats. */
double castRayCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                      double angle, double max_range, RayCastStats &stats);

/** castRayScalar with traversal counters accumulated into @p stats. */
double castRayScalarCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                            double angle, double max_range,
                            RayCastStats &stats);

/**
 * Cast a fan of rays (a full simulated laser scan) into @p out, one hit
 * distance per angle in [start_angle, start_angle + fov), evenly
 * spaced. @p out is cleared first (and reserved to n_rays), so callers
 * can reuse one buffer across scans without accumulating stale ranges.
 * out[i] is bitwise identical across engines.
 */
void castScan(const OccupancyGrid2D &grid, const Vec2 &origin,
              double start_angle, double fov, int n_rays, double max_range,
              std::vector<double> &out,
              RayEngine engine = RayEngine::Hierarchical);

/**
 * castScan with traversal counters accumulated into @p stats: the sum
 * of the per-ray castRayCounted / castRayScalarCounted counters.
 */
void castScanCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                     double start_angle, double fov, int n_rays,
                     double max_range, std::vector<double> &out,
                     RayEngine engine, RayCastStats &stats);

/**
 * Cast the scans of a whole particle set in one call: for pose i and
 * beam b, out[i * n_beams + b] is the hit distance of the ray from
 * pose i's position at angle theta_i + start_angle + b * (fov /
 * n_beams). Runs the poses through rtr::parallelFor, and every range
 * is a pure function of (grid, pose, beam), so the output is bitwise
 * identical at any thread count and to per-pose castRay calls.
 */
void castScanBatch(const OccupancyGrid2D &grid,
                   const std::vector<Pose2> &poses, double start_angle,
                   double fov, int n_beams, double max_range,
                   std::vector<double> &out,
                   RayEngine engine = RayEngine::Hierarchical);

/** Brute-force reference ray-caster (small fixed steps), for testing. */
double castRayReference(const OccupancyGrid2D &grid, const Vec2 &origin,
                        double angle, double max_range);

} // namespace rtr

#endif // RTR_GRID_RAYCAST_H
