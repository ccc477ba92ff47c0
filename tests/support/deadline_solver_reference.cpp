// Frozen reference form of the SLJF/SLJFWC planner: the full 100-step
// bisection, a freshly allocated and sorted slot list per feasibility
// check, and a complete simulated Schedule per local-search candidate.
// Test- and bench-only; the differential suite
// (tests/test_deadline_solver_diff.cpp) asserts the production planner in
// src/offline/deadline_solver.cpp reproduces it bit for bit.

#include "support/deadline_solver_reference.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/workload.hpp"
#include "offline/forward_sim.hpp"

namespace msol::offline {

namespace {

/// One candidate compute slot on the backwards time axis.
struct Slot {
  core::SlaveId slave;
  core::Time deadline;  ///< latest compute-start: M - k * p_j
};

struct SlotOrder {
  bool operator()(const Slot& a, const Slot& b) const {
    return a.deadline < b.deadline;  // max-heap on deadline
  }
};

/// SLJF selection for uniform send cost: the n latest compute-start
/// deadlines across all per-slave chains. With equal send durations this
/// maximizes every order statistic of the deadline multiset at once, so it
/// is the optimal slot choice.
std::vector<Slot> top_slots_uniform(const platform::Platform& platform, int n,
                                    core::Time M) {
  std::priority_queue<Slot, std::vector<Slot>, SlotOrder> heap;
  std::vector<int> depth(static_cast<std::size_t>(platform.size()), 1);
  for (core::SlaveId j = 0; j < platform.size(); ++j) {
    heap.push(Slot{j, M - platform.comp(j)});
  }
  std::vector<Slot> chosen;
  chosen.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(chosen.size()) < n) {
    Slot top = heap.top();
    heap.pop();
    chosen.push_back(top);
    const core::SlaveId j = top.slave;
    const int k = ++depth[static_cast<std::size_t>(j)];
    heap.push(Slot{j, M - static_cast<core::Time>(k) * platform.comp(j)});
  }
  return chosen;
}

/// Jackson's-rule check for the uniform-cost selection: sends in earliest-
/// deadline order, matched FIFO to the sorted releases, must each complete
/// by their slot's compute-start deadline.
bool edf_feasible(std::vector<Slot> slots,
                  const std::vector<core::Time>& releases,
                  core::Time send_cost,
                  std::vector<core::SlaveId>* order_out) {
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.deadline < b.deadline;
  });
  core::Time send_end = 0.0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    send_end = std::max(send_end, releases[i]) + send_cost;
    if (send_end > slots[i].deadline + core::kTimeEps) return false;
  }
  if (order_out != nullptr) {
    order_out->clear();
    for (const Slot& s : slots) order_out->push_back(s.slave);
  }
  return true;
}

/// Slot-selection rules for the backward construction below.
enum class BackwardRule {
  /// Commit the slave whose send could start latest right now:
  /// argmax_j min(port_time, deadline_j) - c_j. Greedy on port room.
  kLatestStart,
  /// Commit the slave with the latest chain deadline, breaking ties on the
  /// cheaper link. On computation-homogeneous platforms the chains advance
  /// in lockstep "levels", so this fills each level with the cheapest links
  /// first and spreads load across every slave that still has room — the
  /// capacity pressure the kLatestStart rule can miss.
  kLatestDeadline,
};

/// SLJFWC construction for per-slave send costs: build the schedule
/// *backwards* from M, placing each send as late as possible. At every step
/// the candidate slot of slave j is its next chain deadline M-(cnt_j+1)*p_j;
/// the rule picks which slave to commit, then the send is packed right
/// before min(port_time, deadline). The instance is feasible iff each
/// forward send starts no earlier than its task's release.
bool backward_feasible(const platform::Platform& platform, int n, core::Time M,
                       const std::vector<core::Time>& send_cost,
                       const std::vector<core::Time>& releases,
                       BackwardRule rule,
                       std::vector<core::SlaveId>* order_out) {
  const int m = platform.size();
  std::vector<int> cnt(static_cast<std::size_t>(m), 0);
  core::Time port_time = std::numeric_limits<core::Time>::infinity();
  std::vector<std::pair<core::SlaveId, core::Time>> placed;  // (slave, start)
  placed.reserve(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    core::SlaveId best = -1;
    core::Time best_key = -std::numeric_limits<core::Time>::infinity();
    core::Time best_cost = 0.0;
    for (core::SlaveId j = 0; j < m; ++j) {
      const core::Time deadline =
          M - static_cast<core::Time>(cnt[static_cast<std::size_t>(j)] + 1) *
                  platform.comp(j);
      const core::Time cost = send_cost[static_cast<std::size_t>(j)];
      const core::Time key = rule == BackwardRule::kLatestStart
                                 ? std::min(port_time, deadline) - cost
                                 : deadline;
      if (key > best_key + core::kTimeEps ||
          (key > best_key - core::kTimeEps && best >= 0 &&
           cost < best_cost - core::kTimeEps)) {
        best = j;
        best_key = key;
        best_cost = cost;
      }
    }
    const core::Time deadline =
        M - static_cast<core::Time>(cnt[static_cast<std::size_t>(best)] + 1) *
                platform.comp(best);
    const core::Time start = std::min(port_time, deadline) -
                             send_cost[static_cast<std::size_t>(best)];
    placed.emplace_back(best, start);
    ++cnt[static_cast<std::size_t>(best)];
    port_time = start;
  }

  // Forward order: reverse of placement; releases are sorted ascending.
  for (int i = 0; i < n; ++i) {
    const core::Time start = placed[static_cast<std::size_t>(n - 1 - i)].second;
    if (start < releases[static_cast<std::size_t>(i)] - core::kTimeEps) {
      return false;
    }
  }
  if (order_out != nullptr) {
    order_out->clear();
    for (int i = n - 1; i >= 0; --i) {
      order_out->push_back(placed[static_cast<std::size_t>(i)].first);
    }
  }
  return true;
}

/// Rebuilds a send order from per-slave task counts: slave j's i-th-from-
/// last task sits at chain deadline M - i*p_j; merging all chains and
/// sorting ascending gives the backward-packed send order.
std::vector<core::SlaveId> order_from_counts(const platform::Platform& platform,
                                             const std::vector<int>& counts,
                                             core::Time M) {
  std::vector<Slot> slots;
  for (core::SlaveId j = 0; j < platform.size(); ++j) {
    for (int k = 1; k <= counts[static_cast<std::size_t>(j)]; ++k) {
      slots.push_back(
          Slot{j, M - static_cast<core::Time>(k) * platform.comp(j)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.deadline < b.deadline;
  });
  std::vector<core::SlaveId> order;
  order.reserve(slots.size());
  for (const Slot& s : slots) order.push_back(s.slave);
  return order;
}

/// First-improvement local search over per-slave counts, scoring candidate
/// plans by their *replayed* makespan. The greedy backward rules can miss
/// the optimal count split when the port and a fast slave saturate
/// simultaneously (the slot choice is genuinely combinatorial); moving one
/// task between slaves and re-deriving the send order repairs exactly those
/// cases.
void improve_counts(const platform::Platform& platform,
                    const std::vector<core::Time>& releases, core::Time M,
                    std::vector<core::SlaveId>& assignment,
                    core::Time& makespan) {
  const int m = platform.size();
  std::vector<int> counts(static_cast<std::size_t>(m), 0);
  for (core::SlaveId j : assignment) ++counts[static_cast<std::size_t>(j)];
  const core::Workload work = core::Workload::from_releases(releases);

  bool improved = true;
  for (int round = 0; improved && round < 200; ++round) {
    improved = false;
    for (core::SlaveId a = 0; a < m && !improved; ++a) {
      if (counts[static_cast<std::size_t>(a)] == 0) continue;
      for (core::SlaveId b = 0; b < m && !improved; ++b) {
        if (a == b) continue;
        --counts[static_cast<std::size_t>(a)];
        ++counts[static_cast<std::size_t>(b)];
        const std::vector<core::SlaveId> order =
            order_from_counts(platform, counts, M);
        const core::Time candidate =
            simulate_assignment(platform, work, order).makespan();
        if (candidate < makespan - core::kTimeEps) {
          makespan = candidate;
          assignment = order;
          improved = true;
        } else {
          ++counts[static_cast<std::size_t>(a)];
          --counts[static_cast<std::size_t>(b)];
        }
      }
    }
  }
}

OfflinePlan plan_impl(const platform::Platform& platform,
                      const std::vector<core::Time>& releases,
                      const std::vector<core::Time>& send_cost,
                      bool comm_aware) {
  OfflinePlan plan;
  const int n = static_cast<int>(releases.size());
  if (n == 0) return plan;
  if (!std::is_sorted(releases.begin(), releases.end())) {
    throw std::invalid_argument("sljf plan: releases must be sorted");
  }

  auto feasible = [&](core::Time M, std::vector<core::SlaveId>* order) {
    if (comm_aware) {
      // Two complementary greedy rules; accept M if either succeeds.
      return backward_feasible(platform, n, M, send_cost, releases,
                               BackwardRule::kLatestDeadline, order) ||
             backward_feasible(platform, n, M, send_cost, releases,
                               BackwardRule::kLatestStart, order);
    }
    return edf_feasible(top_slots_uniform(platform, n, M), releases,
                        send_cost.front(), order);
  };

  // Bracket the optimal makespan, then bisect.
  core::Time lo = releases.back();  // no room to compute anything by then
  core::Time hi = releases.back() +
                  static_cast<core::Time>(n) *
                      (platform.max_comm() + platform.max_comp()) +
                  1.0;
  while (!feasible(hi, nullptr)) hi *= 2.0;  // paranoia; hi should suffice
  for (int iter = 0; iter < 100; ++iter) {
    const core::Time mid = 0.5 * (lo + hi);
    if (feasible(mid, nullptr)) hi = mid;
    else lo = mid;
  }

  if (!feasible(hi, &plan.assignment)) {
    throw std::logic_error("sljf plan: bisection lost feasibility");
  }

  // Replay the plan forward (packed left) to report its true makespan.
  const core::Schedule replay = simulate_assignment(
      platform, core::Workload::from_releases(releases), plan.assignment);
  plan.makespan = replay.makespan();

  if (comm_aware) {
    improve_counts(platform, releases, hi, plan.assignment, plan.makespan);
  }
  return plan;
}

}  // namespace

OfflinePlan sljf_plan_reference(const platform::Platform& platform,
                                const std::vector<core::Time>& releases) {
  // SLJF models every link with the same (average) cost — by design it is
  // blind to communication heterogeneity.
  core::Time mean_c = 0.0;
  for (const platform::SlaveSpec& s : platform.slaves()) mean_c += s.comm;
  mean_c /= static_cast<core::Time>(platform.size());
  const std::vector<core::Time> send_cost(
      static_cast<std::size_t>(platform.size()), mean_c);
  return plan_impl(platform, releases, send_cost, /*comm_aware=*/false);
}

OfflinePlan sljfwc_plan_reference(const platform::Platform& platform,
                                  const std::vector<core::Time>& releases) {
  std::vector<core::Time> send_cost;
  send_cost.reserve(static_cast<std::size_t>(platform.size()));
  for (const platform::SlaveSpec& s : platform.slaves()) {
    send_cost.push_back(s.comm);
  }
  return plan_impl(platform, releases, send_cost, /*comm_aware=*/true);
}

}  // namespace msol::offline
