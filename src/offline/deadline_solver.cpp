#include "offline/deadline_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

/// One plan's worth of planner state: the platform's dense c/p arrays and
/// every buffer a feasibility check or a local-search candidate needs,
/// allocated once per plan.
class Planner {
 public:
  Planner(const platform::Platform& platform,
          const std::vector<core::Time>& releases,
          const std::vector<core::Time>& send_cost)
      : m_(platform.size()),
        n_(static_cast<int>(releases.size())),
        comm_(platform.comm_data()),
        comp_(platform.comp_data()),
        releases_(releases),
        send_cost_(send_cost),
        count_(static_cast<std::size_t>(m_), 0),
        next_deadline_(static_cast<std::size_t>(m_), 0.0),
        ready_(static_cast<std::size_t>(m_), 0.0) {
    // The EDF send chain depends on the releases and the uniform send cost
    // only (SLJF's; SLJFWC never reads it), not on the candidate makespan.
    edf_send_end_.reserve(static_cast<std::size_t>(n_));
    core::Time send_end = 0.0;
    for (core::Time release : releases) {
      send_end = std::max(send_end, release) + send_cost.front();
      edf_send_end_.push_back(send_end);
    }
    heap_.reserve(static_cast<std::size_t>(m_));
    slots_.reserve(static_cast<std::size_t>(n_));
    placed_.reserve(static_cast<std::size_t>(n_));
    order_.reserve(static_cast<std::size_t>(n_));
  }

  /// SLJF check for uniform send cost. Selection: the n latest compute-
  /// start deadlines across all per-slave chains — with equal send
  /// durations this maximizes every order statistic of the deadline
  /// multiset at once, so it is the optimal slot choice. Check (Jackson's
  /// rule): sends in earliest-deadline order, matched FIFO to the sorted
  /// releases, must each complete by their slot's compute-start deadline.
  ///
  /// The heap pops deadlines in non-increasing order, so the t-th pick is
  /// the (n-1-t)-th in EDF order and is checked against the M-independent
  /// send end `edf_send_end_` as soon as it is popped. Only a call that
  /// asks for `order_out` keeps and sorts the picks, because the order of
  /// tied slots is std::sort's.
  bool uniform_feasible(core::Time M, std::vector<core::SlaveId>* order_out) {
    heap_.clear();
    slots_.clear();
    // Same push/pop sequence as a std::priority_queue, so ties pop alike.
    for (core::SlaveId j = 0; j < m_; ++j) {
      count_[static_cast<std::size_t>(j)] = 1;
      heap_.push_back(Slot{j, M - comp_[j]});
      std::push_heap(heap_.begin(), heap_.end(), SlotOrder{});
    }
    for (int t = 0; t < n_; ++t) {
      std::pop_heap(heap_.begin(), heap_.end(), SlotOrder{});
      const Slot top = heap_.back();
      heap_.pop_back();
      if (edf_send_end_[static_cast<std::size_t>(n_ - 1 - t)] >
          top.deadline + core::kTimeEps) {
        return false;
      }
      if (order_out != nullptr) slots_.push_back(top);
      const int k = ++count_[static_cast<std::size_t>(top.slave)];
      heap_.push_back(
          Slot{top.slave, M - static_cast<core::Time>(k) * comp_[top.slave]});
      std::push_heap(heap_.begin(), heap_.end(), SlotOrder{});
    }
    if (order_out != nullptr) {
      sort_slots();
      order_out->clear();
      for (const Slot& s : slots_) order_out->push_back(s.slave);
    }
    return true;
  }

  /// SLJFWC check for per-slave send costs: build the schedule *backwards*
  /// from M, placing each send as late as possible. At every step the
  /// candidate slot of slave j is its next chain deadline M-(cnt_j+1)*p_j;
  /// the rule picks which slave to commit, then the send is packed right
  /// before min(port_time, deadline). The instance is feasible iff each
  /// forward send starts no earlier than its task's release; the i-th
  /// placement is the (n-1-i)-th forward send, so it is checked as soon as
  /// it is placed.
  bool backward_feasible(core::Time M, BackwardRule rule,
                         std::vector<core::SlaveId>* order_out) {
    for (core::SlaveId j = 0; j < m_; ++j) {
      count_[static_cast<std::size_t>(j)] = 0;
      next_deadline_[static_cast<std::size_t>(j)] = M - comp_[j];
    }
    core::Time port_time = std::numeric_limits<core::Time>::infinity();
    placed_.clear();

    for (int i = 0; i < n_; ++i) {
      core::SlaveId best = -1;
      core::Time best_key = -std::numeric_limits<core::Time>::infinity();
      core::Time best_cost = 0.0;
      for (core::SlaveId j = 0; j < m_; ++j) {
        const core::Time deadline = next_deadline_[static_cast<std::size_t>(j)];
        const core::Time cost = send_cost_[static_cast<std::size_t>(j)];
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
      if (best < 0) {
        throw std::logic_error(
            "sljfwc plan: no slave selectable (non-finite chain deadline)");
      }
      const auto b = static_cast<std::size_t>(best);
      const core::Time start =
          std::min(port_time, next_deadline_[b]) - send_cost_[b];
      if (start < releases_[static_cast<std::size_t>(n_ - 1 - i)] -
                      core::kTimeEps) {
        return false;
      }
      placed_.push_back(best);
      const int cnt = ++count_[b];
      next_deadline_[b] = M - static_cast<core::Time>(cnt + 1) * comp_[best];
      port_time = start;
    }
    if (order_out != nullptr) order_out->assign(placed_.rbegin(), placed_.rend());
    return true;
  }

  /// Makespan of `order` replayed forward with StepSimulator's one-port
  /// FIFO arithmetic for unit tasks. Stops as soon as the running maximum
  /// reaches `cutoff`; the value returned then is >= cutoff but may be
  /// below the full makespan.
  core::Time replay_makespan(const std::vector<core::SlaveId>& order,
                             core::Time cutoff) {
    std::fill(ready_.begin(), ready_.end(), 0.0);
    core::Time master_free = 0.0;
    core::Time makespan = 0.0;
    for (int i = 0; i < n_; ++i) {
      const core::SlaveId j = order[static_cast<std::size_t>(i)];
      core::Time& ready = ready_[static_cast<std::size_t>(j)];
      const core::Time send_end =
          std::max(master_free, releases_[static_cast<std::size_t>(i)]) +
          comm_[j];
      const core::Time comp_end = std::max(send_end, ready) + comp_[j];
      master_free = send_end;
      ready = comp_end;
      makespan = std::max(makespan, comp_end);
      if (makespan >= cutoff) break;
    }
    return makespan;
  }

  /// First-improvement local search over per-slave counts, scoring candidate
  /// plans by their *replayed* makespan. The greedy backward rules can miss
  /// the optimal count split when the port and a fast slave saturate
  /// simultaneously (the slot choice is genuinely combinatorial); moving one
  /// task between slaves and re-deriving the send order repairs exactly
  /// those cases. A candidate's replay stops once it can no longer win.
  void improve_counts(core::Time M, std::vector<core::SlaveId>& assignment,
                      core::Time& makespan) {
    std::vector<int> counts(static_cast<std::size_t>(m_), 0);
    for (core::SlaveId j : assignment) ++counts[static_cast<std::size_t>(j)];

    bool improved = true;
    for (int round = 0; improved && round < 200; ++round) {
      improved = false;
      for (core::SlaveId a = 0; a < m_ && !improved; ++a) {
        if (counts[static_cast<std::size_t>(a)] == 0) continue;
        for (core::SlaveId b = 0; b < m_ && !improved; ++b) {
          if (a == b) continue;
          --counts[static_cast<std::size_t>(a)];
          ++counts[static_cast<std::size_t>(b)];
          order_from_counts(counts, M);
          const core::Time bar = makespan - core::kTimeEps;
          const core::Time candidate = replay_makespan(order_, bar);
          if (candidate < bar) {
            makespan = candidate;
            assignment.swap(order_);
            improved = true;
          } else {
            ++counts[static_cast<std::size_t>(a)];
            --counts[static_cast<std::size_t>(b)];
          }
        }
      }
    }
  }

 private:
  /// Ascending by deadline. Tied slots keep std::sort's order, which is
  /// part of the plan on platforms whose chains tie.
  void sort_slots() {
    std::sort(slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
      return a.deadline < b.deadline;
    });
  }

  /// Rebuilds a send order from per-slave task counts into `order_`: slave
  /// j's i-th-from-last task sits at chain deadline M - i*p_j; merging all
  /// chains and sorting ascending gives the backward-packed send order.
  ///
  /// Each chain is already ascending, so an m-way merge sorts them. When no
  /// two deadlines are equal the ascending order is unique, hence the very
  /// sequence std::sort returns. Under a tie (equal p_j make whole levels
  /// tie) the order is std::sort's own, so the chains, concatenated in
  /// slave order, go to std::sort instead.
  void order_from_counts(const std::vector<int>& counts, core::Time M) {
    order_.clear();
    for (core::SlaveId j = 0; j < m_; ++j) {
      const int c = counts[static_cast<std::size_t>(j)];
      count_[static_cast<std::size_t>(j)] = c;
      next_deadline_[static_cast<std::size_t>(j)] =
          c > 0 ? M - static_cast<core::Time>(c) * comp_[j]
                : std::numeric_limits<core::Time>::infinity();
    }
    core::Time last = -std::numeric_limits<core::Time>::infinity();
    bool tied = false;
    while (static_cast<int>(order_.size()) < n_) {
      core::SlaveId best = 0;
      for (core::SlaveId j = 1; j < m_; ++j) {
        if (next_deadline_[static_cast<std::size_t>(j)] <
            next_deadline_[static_cast<std::size_t>(best)]) {
          best = j;
        }
      }
      const auto b = static_cast<std::size_t>(best);
      if (next_deadline_[b] == last) {
        tied = true;
        break;
      }
      last = next_deadline_[b];
      order_.push_back(best);
      const int k = --count_[b];
      next_deadline_[b] = k > 0 ? M - static_cast<core::Time>(k) * comp_[best]
                                : std::numeric_limits<core::Time>::infinity();
    }
    if (!tied) return;

    slots_.clear();
    for (core::SlaveId j = 0; j < m_; ++j) {
      for (int k = 1; k <= counts[static_cast<std::size_t>(j)]; ++k) {
        slots_.push_back(Slot{j, M - static_cast<core::Time>(k) * comp_[j]});
      }
    }
    sort_slots();
    order_.clear();
    for (const Slot& s : slots_) order_.push_back(s.slave);
  }

  int m_;
  int n_;
  const core::Time* comm_;
  const core::Time* comp_;
  const std::vector<core::Time>& releases_;
  const std::vector<core::Time>& send_cost_;
  std::vector<int> count_;                ///< per-slave chain depth k
  std::vector<core::Time> next_deadline_; ///< per-slave next chain deadline
  std::vector<core::Time> ready_;         ///< replay: slave busy-until
  std::vector<core::Time> edf_send_end_;  ///< i-th EDF send's end (SLJF)
  std::vector<Slot> heap_;
  std::vector<Slot> slots_;
  std::vector<core::SlaveId> placed_;  ///< backward placement order
  std::vector<core::SlaveId> order_;   ///< local-search candidate
};

OfflinePlan plan_impl(const platform::Platform& platform,
                      const std::vector<core::Time>& releases,
                      const std::vector<core::Time>& send_cost,
                      bool comm_aware) {
  OfflinePlan plan;
  const int n = static_cast<int>(releases.size());
  if (n == 0) return plan;
  for (std::size_t i = 0; i < releases.size(); ++i) {
    if (!std::isfinite(releases[i])) {
      throw std::invalid_argument("sljf plan: release " + std::to_string(i) +
                                  " is not finite");
    }
  }
  if (!std::is_sorted(releases.begin(), releases.end())) {
    throw std::invalid_argument("sljf plan: releases must be sorted");
  }

  Planner planner(platform, releases, send_cost);
  auto feasible = [&](core::Time M, std::vector<core::SlaveId>* order) {
    if (comm_aware) {
      // Two complementary greedy rules; accept M if either succeeds.
      return planner.backward_feasible(M, BackwardRule::kLatestDeadline,
                                       order) ||
             planner.backward_feasible(M, BackwardRule::kLatestStart, order);
    }
    return planner.uniform_feasible(M, order);
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
    const bool frozen = mid == lo || mid == hi;
    if (feasible(mid, nullptr)) hi = mid;
    else lo = mid;
    // A midpoint that rounds onto an endpoint leaves (lo, hi) a fixed
    // point — every later iteration would repeat this very check.
    if (frozen) break;
  }

  if (!feasible(hi, &plan.assignment)) {
    throw std::logic_error("sljf plan: bisection lost feasibility");
  }

  // Replay the plan forward (packed left) to report its true makespan.
  plan.makespan = planner.replay_makespan(
      plan.assignment, std::numeric_limits<core::Time>::infinity());

  if (comm_aware) planner.improve_counts(hi, plan.assignment, plan.makespan);
  return plan;
}

}  // namespace

OfflinePlan sljf_plan(const platform::Platform& platform,
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

OfflinePlan sljfwc_plan(const platform::Platform& platform,
                        const std::vector<core::Time>& releases) {
  std::vector<core::Time> send_cost;
  send_cost.reserve(static_cast<std::size_t>(platform.size()));
  for (const platform::SlaveSpec& s : platform.slaves()) {
    send_cost.push_back(s.comm);
  }
  return plan_impl(platform, releases, send_cost, /*comm_aware=*/true);
}

}  // namespace msol::offline
