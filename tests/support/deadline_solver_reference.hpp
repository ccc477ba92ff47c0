#pragma once

#include <vector>

#include "offline/deadline_solver.hpp"

namespace msol::offline {

/// Frozen oracles for sljf_plan / sljfwc_plan: same contract, same plans,
/// none of the production planner's cost cuts. Linked only by tests and
/// benches (msol_test_support).
OfflinePlan sljf_plan_reference(const platform::Platform& platform,
                                const std::vector<core::Time>& releases);
OfflinePlan sljfwc_plan_reference(const platform::Platform& platform,
                                  const std::vector<core::Time>& releases);

}  // namespace msol::offline
