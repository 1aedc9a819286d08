// Uncached placement oracle: the program Scheduler::place_stage builds,
// solved by the reference branch & bound instead of the direct solve.
//
// Tests compare the scheduler against these functions. Both sides read the
// same physical::build_placement_ilp output, so a disagreement is a solver
// (or cache) fault, not a modelling difference.
#pragma once

#include <optional>
#include <vector>

#include "physical/placement.h"
#include "physical/scheduler.h"

namespace wasp::oracles {

// Solves `program` as a general ILP -- one integer variable per site with
// bounds [lo[s], hi[s]], plus the row Σ x[s] = parallelism -- by branch &
// bound. nullopt unless the search proves an optimum; the objective is the
// one the search reports.
[[nodiscard]] std::optional<physical::PlacementOutcome> solve_placement(
    const physical::PlacementProgram& program);

// build_placement_ilp followed by solve_placement, with no cache: the oracle
// twin of Scheduler::place_stage for a stage without pinned sites.
[[nodiscard]] std::optional<physical::PlacementOutcome> place_stage(
    const physical::StageContext& context, const physical::NetworkView& view,
    double alpha, const std::vector<int>& extra_slots = {});

// The oracle twin of Scheduler::place_with_min_parallelism: the first
// parallelism in [max(1, min_parallelism), max_parallelism] that places.
[[nodiscard]] std::optional<physical::PlacementOutcome>
place_with_min_parallelism(const physical::StageContext& context,
                           const physical::NetworkView& view, double alpha,
                           int min_parallelism, int max_parallelism,
                           const std::vector<int>& extra_slots = {});

}  // namespace wasp::oracles
