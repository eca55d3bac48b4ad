/**
 * @file
 * Tests for the symbolic planning stack: states, grounding, the
 * planner, and the two domains. Found plans are validated by simulating
 * them action by action.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "symbolic/blocks_world.h"
#include "symbolic/domain.h"
#include "symbolic/firefight.h"
#include "symbolic/planner.h"
#include "symbolic/state.h"

namespace rtr {
namespace {

/** Execute a plan and verify every precondition along the way. */
void
validatePlan(const SymbolicProblem &problem,
             const std::vector<std::string> &plan)
{
    std::vector<GroundAction> actions = groundActions(problem);
    SymbolicState state = problem.initial;
    for (const std::string &step : plan) {
        auto it = std::find_if(actions.begin(), actions.end(),
                               [&](const GroundAction &a) {
                                   return a.name == step;
                               });
        ASSERT_NE(it, actions.end()) << "unknown action " << step;
        ASSERT_TRUE(it->applicable(state))
            << step << " not applicable in " << state.toString();
        state = it->apply(state);
    }
    EXPECT_TRUE(state.containsAll(problem.goal))
        << "plan does not reach the goal; final state "
        << state.toString();
}

TEST(Atom, Formatting)
{
    EXPECT_EQ(makeAtom("On", {"A", "B"}), "On(A,B)");
    EXPECT_EQ(makeAtom("Clear", {"A"}), "Clear(A)");
    EXPECT_EQ(makeAtom("Done", {}), "Done()");
}

TEST(SymbolicState, SetSemantics)
{
    SymbolicState state({"b", "a", "b", "c"});
    EXPECT_EQ(state.atoms().size(), 3u);  // deduplicated
    EXPECT_TRUE(state.contains("a"));
    EXPECT_FALSE(state.contains("d"));
    EXPECT_TRUE(state.containsAll({"a", "c"}));
    EXPECT_FALSE(state.containsAll({"a", "d"}));
    EXPECT_TRUE(state.containsNone({"x", "y"}));
    EXPECT_FALSE(state.containsNone({"x", "b"}));
    EXPECT_EQ(state.countMissing({"a", "d", "e"}), 2u);
}

TEST(SymbolicState, ApplyAddsAndDeletes)
{
    SymbolicState state({"p", "q"});
    SymbolicState next = state.apply({"r"}, {"p"});
    EXPECT_TRUE(next.contains("r"));
    EXPECT_TRUE(next.contains("q"));
    EXPECT_FALSE(next.contains("p"));
    // Original is immutable.
    EXPECT_TRUE(state.contains("p"));
}

TEST(SymbolicState, EqualityAndHash)
{
    SymbolicState a({"x", "y"});
    SymbolicState b({"y", "x"});
    SymbolicState c({"x"});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_FALSE(a == c);
}

TEST(Grounding, EnumeratesAllBindings)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Pick";
    schema.params = {"x", "y"};
    schema.pre_pos = {{"Free", {0}}};
    schema.eff_add = {{"Holding", {0, 1}}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    EXPECT_EQ(actions.size(), 9u);  // 3 x 3
}

TEST(Grounding, DistinctConstraintFilters)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Swap";
    schema.params = {"x", "y"};
    schema.distinct = {{0, 1}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    EXPECT_EQ(actions.size(), 6u);  // 3 x 2
    for (const GroundAction &action : actions)
        EXPECT_EQ(action.name.find("A,A"), std::string::npos);
}

TEST(Grounding, ParamDomainsRestrict)
{
    SymbolicProblem problem;
    problem.symbols = {"A", "B", "C"};
    ActionSchema schema;
    schema.name = "Move";
    schema.params = {"x"};
    schema.param_domains = {{"B"}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].name, "Move(B)");
}

TEST(Grounding, ConstantsSubstituted)
{
    SymbolicProblem problem;
    problem.symbols = {"A"};
    ActionSchema schema;
    schema.name = "Drop";
    schema.params = {"x"};
    schema.constants = {"Table"};
    schema.eff_add = {{"On", {0, ~0}}};
    problem.schemas.push_back(schema);
    auto actions = groundActions(problem);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].eff_add[0], "On(A,Table)");
}

TEST(GroundAction, ApplicabilityRespectsNegativePreconditions)
{
    GroundAction action;
    action.pre_pos = {"p"};
    action.pre_neg = {"q"};
    EXPECT_TRUE(action.applicable(SymbolicState({"p"})));
    EXPECT_FALSE(action.applicable(SymbolicState({"p", "q"})));
    EXPECT_FALSE(action.applicable(SymbolicState{}));
}

TEST(BlocksWorld, ProblemShape)
{
    SymbolicProblem problem = makeBlocksWorld(4, 1);
    EXPECT_EQ(problem.symbols.size(), 5u);  // 4 blocks + Table
    // Every block sits on something initially.
    int on_atoms = 0;
    for (const Atom &atom : problem.initial.atoms())
        on_atoms += atom.rfind("On(", 0) == 0;
    EXPECT_EQ(on_atoms, 4);
    EXPECT_EQ(problem.goal.size(), 4u);
}

TEST(BlocksWorld, PlannerSolvesAndPlanValidates)
{
    SymbolicProblem problem = makeBlocksWorld(6, 3);
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.plan.size(),
              static_cast<std::size_t>(result.cost));
    validatePlan(problem, result.plan);
    EXPECT_GT(result.avg_applicable_actions, 1.0);
}

TEST(BlocksWorld, GoalCountHeuristicAlsoSolves)
{
    SymbolicProblem problem = makeBlocksWorld(4, 5);
    SymbolicPlannerConfig config;
    config.heuristic = SymbolicPlannerConfig::Heuristic::GoalCount;
    SymbolicPlanner planner(problem, config);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    validatePlan(problem, result.plan);
}

TEST(BlocksWorld, DifferentSeedsDifferentInstances)
{
    SymbolicProblem a = makeBlocksWorld(5, 1);
    SymbolicProblem b = makeBlocksWorld(5, 2);
    EXPECT_FALSE(a.initial == b.initial && a.goal == b.goal);
}

TEST(Firefight, PlannerSolvesAndPlanValidates)
{
    SymbolicProblem problem = makeFirefight(4);
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    validatePlan(problem, result.plan);
    // The fire needs three pours; each pour needs a fill first.
    int pours = 0, fills = 0;
    for (const std::string &action : result.plan) {
        pours += action.rfind("PourWater", 0) == 0;
        fills += action.rfind("FillWater", 0) == 0;
    }
    EXPECT_EQ(pours, 3);
    EXPECT_EQ(fills, 3);
}

TEST(Firefight, MoreBranchingThanBlocksWorld)
{
    // The paper's sym-fext parallelism claim: more valid actions per
    // node than sym-blkw (~3.2x at the default configurations).
    SymbolicProblem blkw = makeBlocksWorld(6, 1);
    SymbolicProblem fext = makeFirefight(12);
    SymbolicPlanResult blkw_result = SymbolicPlanner(blkw).plan();
    SymbolicPlanResult fext_result = SymbolicPlanner(fext).plan();
    ASSERT_TRUE(blkw_result.found);
    ASSERT_TRUE(fext_result.found);
    EXPECT_GT(fext_result.avg_applicable_actions,
              2.0 * blkw_result.avg_applicable_actions);
}

TEST(Planner, ExpansionCapReturnsNotFound)
{
    SymbolicProblem problem = makeBlocksWorld(7, 2);
    SymbolicPlannerConfig config;
    config.max_expansions = 2;
    config.heuristic = SymbolicPlannerConfig::Heuristic::GoalCount;
    SymbolicPlanner planner(problem, config);
    SymbolicPlanResult result = planner.plan();
    EXPECT_FALSE(result.found);
}

TEST(Planner, TrivialGoalYieldsEmptyPlan)
{
    SymbolicProblem problem = makeBlocksWorld(3, 4);
    problem.goal = {problem.initial.atoms().front()};
    SymbolicPlanner planner(problem);
    SymbolicPlanResult result = planner.plan();
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.plan.empty());
    EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

/**
 * Search-order pin: expansion and generation counts, plan and cost of
 * the default blocks-world and firefight instances (the sym-blkw and
 * sym-fext kernel defaults). Any change to expansion order, tie-break
 * or relaxation shows up here; the values hold on both search engines.
 */
TEST(Planner, DefaultInstancesExpandInPinnedOrder)
{
    SymbolicPlanResult blkw = SymbolicPlanner(makeBlocksWorld(6, 1)).plan();
    ASSERT_TRUE(blkw.found);
    EXPECT_EQ(blkw.expanded, 8u);
    EXPECT_EQ(blkw.generated, 60u);
    EXPECT_EQ(blkw.cost, 7.0);
    EXPECT_EQ(blkw.plan,
              (std::vector<std::string>{
                  "MoveToTable(B5,B6)", "MoveToTable(B6,B3)",
                  "Move(B4,B2,B6)", "Move(B3,Table,B5)", "Move(B2,B1,B3)",
                  "Move(B1,Table,B4)", "Move(B2,B3,B1)"}));

    SymbolicPlanResult fext = SymbolicPlanner(makeFirefight(12)).plan();
    ASSERT_TRUE(fext.found);
    EXPECT_EQ(fext.expanded, 494u);
    EXPECT_EQ(fext.generated, 11761u);
    EXPECT_EQ(fext.cost, 20.0);
    EXPECT_EQ(fext.plan,
              (std::vector<std::string>{
                  "MoveRob(L1,L2)", "Land(L2)", "MoveRobCarry(L2,W)",
                  "FillWater()", "MoveRobCarry(W,F)", "ChargeBattery(F)",
                  "TakeOff(F)", "PourWater1()", "Land(F)",
                  "MoveRobCarry(F,W)", "FillWater()", "MoveRobCarry(W,F)",
                  "TakeOff(F)", "PourWater2()", "Land(F)",
                  "MoveRobCarry(F,W)", "FillWater()", "MoveRobCarry(W,F)",
                  "TakeOff(F)", "PourWater3()"}));
}

} // namespace
} // namespace rtr
