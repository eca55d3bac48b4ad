#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "arm/cspace.h"
#include "util/rng.h"

namespace perfbench {

using namespace rtr::service;

std::uint64_t
deriveKernelSeed(const std::string &kernel, std::uint64_t seed,
                 std::size_t round, std::size_t k)
{
    std::vector<std::uint64_t> passing;
    for (std::uint64_t s = 1; s <= kKernelSeedRange; ++s) {
        if (!isKnownDefect(kernel, s))
            passing.push_back(s);
    }
    const std::uint64_t mixed =
        rtr::splitSeed(rtr::splitSeed(seed, round + 1), k + 1);
    return passing[mixed % passing.size()];
}

namespace {

/** Whether a metric or series name carries a timing (not compared). */
bool
isTimingKey(const std::string &key)
{
    for (const char *marker : {"fraction", "seconds", "_ns", "ns_"}) {
        if (key.find(marker) != std::string::npos)
            return true;
    }
    return false;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string
describe(const std::string &what, double a, double b)
{
    std::ostringstream out;
    out.precision(17);
    out << what << " " << a << " vs " << b;
    return out.str();
}

} // namespace

std::string
compareKernelOutputs(const rtr::KernelReport &a, const rtr::KernelReport &b)
{
    if (a.success != b.success)
        return "success flag";
    for (const auto &[name, value] : a.metrics) {
        if (isTimingKey(name))
            continue;
        auto it = b.metrics.find(name);
        if (it == b.metrics.end())
            return "metric " + name + " missing";
        if (!sameBits(value, it->second))
            return describe("metric " + name, value, it->second);
    }
    for (const auto &[name, series] : a.series) {
        if (isTimingKey(name))
            continue;
        auto it = b.series.find(name);
        if (it == b.series.end() || it->second.size() != series.size())
            return "series " + name + " length";
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (!sameBits(series[i], it->second[i]))
                return describe("series " + name + "[" + std::to_string(i) +
                                    "]",
                                series[i], it->second[i]);
        }
    }
    for (const auto &[name, value] : b.metrics) {
        if (!isTimingKey(name) && !a.metrics.count(name))
            return "metric " + name + " missing";
    }
    return "";
}

namespace {

/** Quality metric bound: holds on every successful input in the seed range. */
struct QualityBound
{
    const char *kernel;
    const char *metric;
    double lo;
    double hi;
};

// Bounds cover every successful run of kernel seeds 1..256 at the
// bench_table1 configurations when this benchmark was introduced (observed range in
// the comment), with margin.
const std::vector<QualityBound> kQuality = {
    {"pfl", "final_error_m", 0.0, 1.5},           // 0.015 .. 0.94
    {"ekfslam", "final_pose_error_m", 0.0, 0.5},  // 0.0027 .. 0.104
    {"srec", "final_rmse_m", 0.0, 0.06},          // 0.0029 .. 0.043
    {"pp2d", "path_cost_m", 300.0, 480.0},        // 355.9 .. 399.4
    {"pp3d", "path_cost_m", 150.0, 230.0},        // 173.5 .. 193.3
    {"movtar", "catch_time", 1.0, 300.0},         // 49 .. 199
    {"prm", "path_cost_rad", 1.0, 20.0},          // 1.95 .. 13.8
    {"rrt", "path_cost_rad", 1.0, 30.0},          // 1.95 .. 21.5
    {"rrtstar", "path_cost_rad", 1.0, 25.0},      // 1.78 .. 16.2
    {"rrtpp", "path_cost_rad", 1.0, 20.0},        // 1.55 .. 14.5
    {"sym-blkw", "plan_length", 1.0, 18.0},       // 1 .. 12
    {"sym-fext", "plan_length", 16.0, 26.0},      // 20
    {"dmp", "tracking_error_m", 0.0, 0.5},        // 0.22 (no seed)
    {"mpc", "avg_tracking_error_m", 0.0, 0.2},    // 0.073 (no seed)
    {"cem", "best_reward", -0.25, 0.0},           // -0.183 .. -0.0001
    {"bo", "best_reward", -0.25, 0.0},            // -0.236 .. -0.00004
};

} // namespace

std::string
checkKernelQuality(const std::string &kernel, const rtr::KernelReport &report)
{
    std::ostringstream problems;
    if (!report.success)
        problems << "success=0 ";
    for (const QualityBound &q : kQuality) {
        if (kernel != q.kernel)
            continue;
        auto it = report.metrics.find(q.metric);
        if (it == report.metrics.end())
            problems << q.metric << " missing ";
        else if (!(it->second >= q.lo && it->second <= q.hi))
            problems << q.metric << "=" << it->second << " outside [" << q.lo
                     << ", " << q.hi << "] ";
    }
    std::string text = problems.str();
    if (!text.empty())
        text.pop_back();
    return text;
}

const std::vector<KnownDefect> &
knownDefects()
{
    static const std::vector<KnownDefect> defects = {
        {"pfl", "the filter settles on a wrong pose: final_error_m 2.0 to 37 m, success needs < 1.5 m",
         {14, 20, 21, 24, 34, 44, 48, 49, 56, 84, 97, 99, 102, 109, 113, 121, 126, 130, 134, 148, 157, 163, 164, 170, 171, 189, 192, 199, 219, 224, 228, 243}},
        {"srec", "scene registration fails: mean pose error >= 0.10 m (success=0), final_rmse_m up to 0.46 m",
         {7, 22, 42, 54, 70, 96, 118, 125, 135, 136, 138, 140, 141, 145, 150, 151, 153, 178, 186, 201, 202, 204, 215, 245, 255}},
        {"pp2d", "found=0: the generated start and goal are not connected for the footprint",
         {9, 38, 60, 83, 98, 141, 165}},
        {"rrt", "found=0: no path within the 200000-sample budget (ROI about 1.8 s)",
         {50, 111, 133, 150, 170, 179}},
        {"rrtstar", "found=0: no path within the --samples 2500 budget",
         {4, 5, 7, 13, 25, 27, 34, 36, 50, 69, 71, 73, 80, 111, 113, 120, 123, 126, 133, 136, 139, 150, 154, 164, 170, 171, 179, 189, 192, 196, 198, 203, 212, 220, 230, 241, 245, 256}},
        {"rrtpp", "found=0: no path within the 200000-sample budget (ROI about 1.8 s)",
         {50, 111, 133, 150, 170, 179}},
        {"cem", "best_reward below -0.25 after 75 episodes",
         {46, 58, 67, 145, 207}},
        {"bo", "best_reward below -0.25 after 50 iterations",
         {14, 60, 71, 126, 145, 166, 169, 242, 256}},
    };
    return defects;
}

bool
isKnownDefect(const std::string &kernel, std::uint64_t seed)
{
    for (const KnownDefect &d : knownDefects()) {
        if (kernel == d.kernel &&
            std::find(d.seeds.begin(), d.seeds.end(), seed) != d.seeds.end())
            return true;
    }
    return false;
}

DefectInput
knownDefectProbe(std::uint64_t seed)
{
    std::vector<DefectInput> inputs;
    for (const KnownDefect &d : knownDefects()) {
        for (std::uint64_t s : d.seeds)
            inputs.push_back({d.kernel, s});
    }
    return inputs[rtr::splitSeed(seed, 0) % inputs.size()];
}

OracleScratch::OracleScratch(const World &world)
    : footprint(world.footprint()),
      checker(world.arm(), world.workspace()),
      optimal(world.grid(), &footprint)
{
}

namespace {

/** Heading of an 8-neighbour move, as the grid planner's move table has it. */
bool
moveHeading(int dx, int dy, double &heading, double &len)
{
    constexpr double kSqrt2 = 1.41421356237309515;
    static const struct
    {
        int dx, dy;
        double len, heading;
    } kMoves[8] = {
        {1, 0, 1.0, 0.0},
        {-1, 0, 1.0, 3.14159265358979},
        {0, 1, 1.0, 1.5707963267949},
        {0, -1, 1.0, -1.5707963267949},
        {1, 1, kSqrt2, 0.785398163397448},
        {1, -1, kSqrt2, -0.785398163397448},
        {-1, 1, kSqrt2, 2.35619449019234},
        {-1, -1, kSqrt2, -2.35619449019234},
    };
    for (const auto &m : kMoves) {
        if (m.dx == dx && m.dy == dy) {
            heading = m.heading;
            len = m.len;
            return true;
        }
    }
    return false;
}

bool
cellFree(const World &world, const rtr::RectFootprint &footprint,
         const rtr::Cell2 &cell, double heading)
{
    const rtr::OccupancyGrid2D &grid = world.grid();
    if (!grid.inBounds(cell.x, cell.y) || grid.occupied(cell.x, cell.y))
        return false;
    const rtr::Vec2 c = grid.cellCenter(cell);
    return !footprint.collides(grid, rtr::Pose2{c.x, c.y, heading});
}

bool
nearlyEqual(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string
cellText(const rtr::Cell2 &c)
{
    std::ostringstream out;
    out << "(" << c.x << "," << c.y << ")";
    return out.str();
}

} // namespace

std::string
checkPp2d(const World &world, const Pp2dPlanRequest &request,
          const Pp2dPlanResponse &response, OracleScratch &scratch)
{
    const rtr::GridPlan2D optimal =
        scratch.optimal.plan(request.start, request.goal, 1.0);
    if (!response.found) {
        if (optimal.found)
            return "pp2d found=false but an eps=1 plan exists";
        return response.path.empty() ? "" : "pp2d found=false with a path";
    }
    if (!optimal.found)
        return "pp2d found a path where the eps=1 plan fails";
    const std::vector<rtr::Cell2> &path = response.path;
    if (path.empty() || !(path.front() == request.start) ||
        !(path.back() == request.goal))
        return "pp2d path does not connect start to goal";
    if (!cellFree(world, scratch.footprint, path.front(), 0.0))
        return "pp2d start cell " + cellText(path.front()) + " collides";
    const double res = world.grid().resolution();
    double cost = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        double heading = 0.0, len = 0.0;
        if (!moveHeading(path[i].x - path[i - 1].x,
                         path[i].y - path[i - 1].y, heading, len))
            return "pp2d step " + cellText(path[i - 1]) + "->" +
                   cellText(path[i]) + " is not an 8-neighbour move";
        if (!cellFree(world, scratch.footprint, path[i], heading))
            return "pp2d path cell " + cellText(path[i]) + " collides";
        cost += len * res;
    }
    if (!nearlyEqual(response.cost, cost))
        return describe("pp2d cost differs from summed steps",
                        response.cost, cost);
    if (!(response.cost <= request.epsilon * optimal.cost * (1.0 + 1e-12)))
        return describe("pp2d cost exceeds eps x optimal", response.cost,
                        request.epsilon * optimal.cost);
    return "";
}

std::string
checkPrm(const World &world, const PrmQueryRequest &request,
         const PrmQueryResponse &response, OracleScratch &scratch)
{
    if (!response.found)
        return response.path.empty() ? "" : "prm found=false with a path";
    const std::vector<rtr::ArmConfig> &path = response.path;
    if (path.size() < 2 || path.front() != request.start ||
        path.back() != request.goal)
        return "prm path endpoints do not match the request";
    const double step = world.config().prm_collision_step;
    double cost = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (scratch.checker.configCollides(path[i]))
            return "prm waypoint " + std::to_string(i) + " collides";
        if (i == 0)
            continue;
        if (scratch.checker.motionCollides(path[i - 1], path[i], step))
            return "prm edge " + std::to_string(i - 1) + "->" +
                   std::to_string(i) + " collides";
        cost += rtr::ConfigSpace::distance(path[i - 1], path[i]);
    }
    if (!nearlyEqual(response.cost, cost))
        return describe("prm cost differs from summed edges", response.cost,
                        cost);
    return "";
}

std::string
checkNn(const World &world, const NnBatchRequest &request,
        const NnBatchResponse &response)
{
    const std::vector<rtr::Vec3> &cloud = world.nnCloud().points();
    const std::size_t k =
        std::min<std::size_t>(std::max<std::uint32_t>(request.k, 1),
                              cloud.size());
    if (response.hits.size() != request.queries.size() * k)
        return "nn hit count " + std::to_string(response.hits.size()) +
               " != " + std::to_string(request.queries.size() * k);
    std::vector<std::pair<double, std::uint32_t>> all(cloud.size());
    for (std::size_t q = 0; q < request.queries.size(); ++q) {
        const auto &p = request.queries[q];
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            const double dx = cloud[i].x - p[0];
            const double dy = cloud[i].y - p[1];
            const double dz = cloud[i].z - p[2];
            all[i] = {dx * dx + dy * dy + dz * dz,
                      static_cast<std::uint32_t>(i)};
        }
        std::partial_sort(all.begin(),
                          all.begin() + static_cast<std::ptrdiff_t>(k),
                          all.end());
        for (std::size_t j = 0; j < k; ++j) {
            const rtr::KdHit &hit = response.hits[q * k + j];
            if (hit.id != all[j].second ||
                !(std::fabs(hit.dist2 - all[j].first) <=
                  1e-12 * (1.0 + all[j].first)))
                return "nn query " + std::to_string(q) + " hit " +
                       std::to_string(j) + ": id " + std::to_string(hit.id) +
                       " != brute-force id " + std::to_string(all[j].second);
        }
    }
    return "";
}

std::string
checkIcp(const IcpRegisterRequest &request, const IcpRegisterResponse &response)
{
    if (response.iterations < 1 ||
        response.iterations > request.max_iterations)
        return "icp iterations " + std::to_string(response.iterations) +
               " outside [1, " + std::to_string(request.max_iterations) + "]";
    if (!(response.rmse >= 0.0 && response.rmse <= kIcpMaxRmse))
        return describe("icp rmse above bound", response.rmse, kIcpMaxRmse);
    // The rotation block must be orthonormal with determinant +1.
    const auto &m = response.transform;
    for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
            double dot = 0.0;
            for (int k = 0; k < 3; ++k)
                dot += m[a * 3 + k] * m[b * 3 + k];
            if (!(std::fabs(dot - (a == b ? 1.0 : 0.0)) <= 1e-6))
                return "icp rotation is not orthonormal";
        }
    }
    const double det = m[0] * (m[4] * m[8] - m[5] * m[7]) -
                       m[1] * (m[3] * m[8] - m[5] * m[6]) +
                       m[2] * (m[3] * m[7] - m[4] * m[6]);
    if (!(det > 0.0))
        return "icp rotation is a reflection";
    if (!(std::hypot(m[9], m[10], m[11]) <= 1.0))
        return "icp translation is not finite or above 1 m";
    return "";
}

std::string
checkResponse(const World &world, const Request &request,
              const Response &response, OracleScratch &scratch)
{
    if (request.index() != response.index())
        return "response type does not match the request";
    switch (requestTypeOf(request)) {
    case RequestType::Pp2dPlan:
        return checkPp2d(world, std::get<Pp2dPlanRequest>(request),
                         std::get<Pp2dPlanResponse>(response), scratch);
    case RequestType::PrmQuery:
        return checkPrm(world, std::get<PrmQueryRequest>(request),
                        std::get<PrmQueryResponse>(response), scratch);
    case RequestType::NnBatch:
        return checkNn(world, std::get<NnBatchRequest>(request),
                       std::get<NnBatchResponse>(response));
    case RequestType::IcpRegister:
        return checkIcp(std::get<IcpRegisterRequest>(request),
                        std::get<IcpRegisterResponse>(response));
    }
    return "unknown request type";
}

bool
sameResponse(const Response &a, const Response &b)
{
    std::vector<std::uint8_t> bytes_a, bytes_b;
    appendCanonicalBytes(a, bytes_a);
    appendCanonicalBytes(b, bytes_b);
    return bytes_a == bytes_b;
}

std::string
checkTicketOutcome(bool refused, TicketStatus status)
{
    if (refused)
        return "refused (queue full)";
    return status == TicketStatus::Done ? "" : "did not finish";
}

} // namespace perfbench
