#include "grid/raycast.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/parallel.h"

namespace rtr {

namespace {

/** No-op counter so the uninstrumented casts pay nothing. */
struct NullCounter
{
    void step() {}
    void probe() {}
};

/** Accumulates into a RayCastStats. */
struct StatsCounter
{
    RayCastStats *stats;
    void step() { ++stats->steps; }
    void probe() { ++stats->probes; }
};

/**
 * The one Amanatides-Woo stepping loop behind every engine. kHier
 * selects the pyramid fast path; the floating-point work (boundary
 * comparisons, t accumulation, the returned t) is textually shared, so
 * both instantiations produce bitwise-identical ranges.
 */
template <bool kHier, typename Counter>
double
castRayImpl(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
            double max_range, Counter counter)
{
    const double res = grid.resolution();
    const double dir_x = std::cos(angle);
    const double dir_y = std::sin(angle);

    Cell2 cell = grid.worldToCell(origin);
    counter.probe();
    if (kHier ? grid.occupied(cell.x, cell.y)
              : grid.occupiedByte(cell.x, cell.y))
        return 0.0;

    // Traversal setup: t measures world distance along the ray;
    // t_max_* is the distance at which the ray crosses the next cell
    // boundary on each axis; t_delta_* the distance between successive
    // crossings.
    const int step_x = dir_x > 0 ? 1 : (dir_x < 0 ? -1 : 0);
    const int step_y = dir_y > 0 ? 1 : (dir_y < 0 ? -1 : 0);

    const double inf = 1e300;
    double t_max_x = inf, t_delta_x = inf;
    if (step_x != 0) {
        double cell_edge = grid.origin().x +
                           (cell.x + (step_x > 0 ? 1 : 0)) * res;
        t_max_x = (cell_edge - origin.x) / dir_x;
        t_delta_x = res / std::abs(dir_x);
    }
    double t_max_y = inf, t_delta_y = inf;
    if (step_y != 0) {
        double cell_edge = grid.origin().y +
                           (cell.y + (step_y > 0 ? 1 : 0)) * res;
        t_max_y = (cell_edge - origin.y) / dir_y;
        t_delta_y = res / std::abs(dir_y);
    }

    // Hierarchical state: the traversal is certified probe-free until
    // one axis reaches its exit cell (the first cell OUTSIDE the
    // current proven-empty block along that axis' step direction).
    // Because cells advance by +-1, "left the block" is a single
    // equality test on whichever axis just stepped. kUnreachable marks
    // an axis that never steps (its t_max is pinned at infinity).
    constexpr int kUnreachable = INT_MIN;
    [[maybe_unused]] int exit_x =
        step_x != 0 ? cell.x + step_x : kUnreachable;
    [[maybe_unused]] int exit_y =
        step_y != 0 ? cell.y + step_y : kUnreachable;

    // Summary planes, hoisted so per-probe tests touch cached fields
    // instead of re-walking the pyramid vector. The ray-caster uses at
    // most two levels: 8- and 64-cell blocks already cover any sensor
    // range worth skipping.
    [[maybe_unused]] const BitPlane *l1 = nullptr;
    [[maybe_unused]] const BitPlane *l2 = nullptr;
    if constexpr (kHier) {
        if (grid.pyramidLevels() >= 1)
            l1 = &grid.pyramidLevel(1);
        if (grid.pyramidLevels() >= 2)
            l2 = &grid.pyramidLevel(2);
    }

    while (true) {
        double t;
        [[maybe_unused]] bool at_exit;
        if (t_max_x < t_max_y) {
            t = t_max_x;
            cell.x += step_x;
            t_max_x += t_delta_x;
            at_exit = cell.x == exit_x;
        } else {
            t = t_max_y;
            cell.y += step_y;
            t_max_y += t_delta_y;
            at_exit = cell.y == exit_y;
        }
        counter.step();
        if (t > max_range)
            return max_range;
        if constexpr (kHier) {
            if (!at_exit)
                continue;
            counter.probe();
            if (!grid.inBounds(cell.x, cell.y))
                return t;
            int shift = 0;
            if (l1 && !l1->test(cell.x >> 3, cell.y >> 3)) {
                // Level-1 block free; widen to level 2 when that block
                // is free too.
                shift = (l2 && !l2->test(cell.x >> 6, cell.y >> 6)) ? 6
                                                                    : 3;
            } else if (grid.occupiedUnchecked(cell.x, cell.y)) {
                return t;
            }
            if (shift == 0) {
                // No empty block here (or no pyramid at all): probe
                // again on the very next step of either axis.
                if (step_x != 0)
                    exit_x = cell.x + step_x;
                if (step_y != 0)
                    exit_y = cell.y + step_y;
                continue;
            }
            // Exit cells sit just past the block, clamped to the first
            // out-of-bounds coordinate: cells past the grid edge count
            // as occupied, so the ray must stop skipping and probe the
            // moment it leaves the grid.
            const int b0_x = (cell.x >> shift) << shift;
            const int b0_y = (cell.y >> shift) << shift;
            if (step_x > 0)
                exit_x = std::min(b0_x + (1 << shift), grid.width());
            else if (step_x < 0)
                exit_x = std::max(b0_x - 1, -1);
            if (step_y > 0)
                exit_y = std::min(b0_y + (1 << shift), grid.height());
            else if (step_y < 0)
                exit_y = std::max(b0_y - 1, -1);
        } else {
            // The reference engine probes the byte array — the exact
            // pre-bitboard path, so its cost profile (and the paper's
            // Table-I fractions) stay reproducible.
            counter.probe();
            if (grid.occupiedByte(cell.x, cell.y))
                return t;
        }
    }
}

} // namespace

double
castRay(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
        double max_range)
{
    return castRayImpl<true>(grid, origin, angle, max_range, NullCounter{});
}

double
castRayScalar(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
              double max_range)
{
    return castRayImpl<false>(grid, origin, angle, max_range,
                              NullCounter{});
}

double
castRayCounted(const OccupancyGrid2D &grid, const Vec2 &origin, double angle,
               double max_range, RayCastStats &stats)
{
    return castRayImpl<true>(grid, origin, angle, max_range,
                             StatsCounter{&stats});
}

double
castRayScalarCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                     double angle, double max_range, RayCastStats &stats)
{
    return castRayImpl<false>(grid, origin, angle, max_range,
                              StatsCounter{&stats});
}

const char *
rayEngineName(RayEngine engine)
{
    switch (engine) {
    case RayEngine::Hierarchical:
        return "hier";
    case RayEngine::Scalar:
        return "scalar";
    }
    return "?";
}

bool
parseRayEngine(std::string_view name, RayEngine &out)
{
    if (name == "hier") {
        out = RayEngine::Hierarchical;
        return true;
    }
    if (name == "scalar") {
        out = RayEngine::Scalar;
        return true;
    }
    return false;
}

void
castScan(const OccupancyGrid2D &grid, const Vec2 &origin, double start_angle,
         double fov, int n_rays, double max_range, std::vector<double> &out,
         RayEngine engine)
{
    out.clear();
    out.resize(static_cast<std::size_t>(n_rays > 0 ? n_rays : 0));
    const double step = n_rays > 1 ? fov / n_rays : 0.0;
    if (engine == RayEngine::Hierarchical) {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRay(
                grid, origin, start_angle + i * step, max_range);
    } else {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayScalar(
                grid, origin, start_angle + i * step, max_range);
    }
}

void
castScanCounted(const OccupancyGrid2D &grid, const Vec2 &origin,
                double start_angle, double fov, int n_rays, double max_range,
                std::vector<double> &out, RayEngine engine,
                RayCastStats &stats)
{
    out.clear();
    out.resize(static_cast<std::size_t>(n_rays > 0 ? n_rays : 0));
    const double step = n_rays > 1 ? fov / n_rays : 0.0;
    if (engine == RayEngine::Hierarchical) {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayCounted(
                grid, origin, start_angle + i * step, max_range, stats);
    } else {
        for (int i = 0; i < n_rays; ++i)
            out[static_cast<std::size_t>(i)] = castRayScalarCounted(
                grid, origin, start_angle + i * step, max_range, stats);
    }
}

void
castScanBatch(const OccupancyGrid2D &grid, const std::vector<Pose2> &poses,
              double start_angle, double fov, int n_beams, double max_range,
              std::vector<double> &out, RayEngine engine)
{
    const std::size_t beams =
        static_cast<std::size_t>(n_beams > 0 ? n_beams : 0);
    const std::size_t n_poses = poses.size();
    out.resize(n_poses * beams);
    if (beams == 0)
        return;
    const double beam_step =
        n_beams > 1 ? fov / static_cast<double>(n_beams) : 0.0;
    parallelForChunks(0, n_poses, 0, [&](const ChunkRange &chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            const Pose2 &pose = poses[i];
            double *ranges = out.data() + i * beams;
            for (std::size_t b = 0; b < beams; ++b) {
                double ray_angle = pose.theta + start_angle +
                                   static_cast<double>(b) * beam_step;
                ranges[b] =
                    engine == RayEngine::Hierarchical
                        ? castRay(grid, pose.position(), ray_angle,
                                  max_range)
                        : castRayScalar(grid, pose.position(), ray_angle,
                                        max_range);
            }
        }
    });
}

double
castRayReference(const OccupancyGrid2D &grid, const Vec2 &origin,
                 double angle, double max_range)
{
    const double step = grid.resolution() * 0.02;
    const Vec2 dir{std::cos(angle), std::sin(angle)};
    for (double t = 0.0; t <= max_range; t += step) {
        if (grid.occupiedWorld(origin + dir * t))
            return t;
    }
    return max_range;
}

} // namespace rtr
