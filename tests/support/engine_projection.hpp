#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/meta/projection.hpp"
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"
#include "offline/forward_sim.hpp"

namespace msol::algorithms::meta {

/// A frozen, self-contained copy of everything an EngineView legally
/// exposes, plus a bounded forward simulator driven by a member policy.
///
/// The snapshot honours the on-line information model: availability and
/// speeds are frozen at their current values (future outages, recoveries,
/// and drift stay invisible, exactly as the live probes are), no future
/// releases arrive, and offline slaves probe as infinity and reject
/// commits. Timing arithmetic is offline::StepSimulator — the same one-port
/// FIFO step the exhaustive solver searches over — seeded with the live
/// port_free_at() / slave_ready_at() observables, on an effective platform
/// whose p_j is scaled by the slave's current speed.
///
/// Approximations, deliberate and documented: the projection models one
/// port (port_capacity > 1 collapses to the earliest-free port the view
/// exposes), and a slave's snapshot tasks_in_system count drains to zero
/// when its snapshot ready-time passes (per-task completion instants of
/// already-committed work are not observable through the view).
///
/// Test support only: the rebuild-every-decision oracle that
/// IncrementalProjection (algorithms/meta/projection.hpp) is pinned
/// bit-identical to. Linked by the tests and benches that diff or time
/// against it (msol_test_support), never by libmsol.
class EngineProjection : public core::EngineView {
 public:
  explicit EngineProjection(const core::EngineView& live);

  /// Runs `policy` from the snapshot until it has committed `horizon`
  /// tasks, the pending queue drains, or it stalls (defers with nothing
  /// left to wake on). The policy is consulted exactly when a live engine
  /// would consult it: port free and at least one task pending.
  ProjectionOutcome run(core::OnlineScheduler& policy, int horizon);

  // EngineView ------------------------------------------------------------
  core::Time now() const override { return now_; }
  const platform::Platform& platform() const override { return platform_; }
  core::Time port_free_at() const override;
  bool is_available(core::SlaveId j) const override;
  double current_speed(core::SlaveId j) const override;
  core::Time slave_ready_at(core::SlaveId j) const override;
  int tasks_in_system(core::SlaveId j) const override;
  core::TaskId pending_front() const override;
  std::vector<core::TaskId> pending_tasks() const override;
  int pending_count() const override;
  int total_tasks() const override { return total_tasks_; }
  int completed_or_committed() const override {
    return base_committed_ + commits_;
  }
  const core::TaskSpec& task_spec(core::TaskId i) const override;
  std::optional<core::SlaveId> assignment_of(core::TaskId task) const override;
  core::Time completion_if_assigned(core::TaskId task,
                                    core::SlaveId j) const override;
  /// Dense arrays for EngineView's batch probes, which besides the
  /// per-slave arithmetic hoist the O(pending) task_spec list walk out of
  /// the per-slave loop.
  core::SlaveStateView slave_state() const override;
  const core::Schedule& schedule() const override { return schedule_; }
  const core::Trace& trace() const override { return trace_; }

 private:
  void commit(const core::Assign& assign);
  /// Advances to the next simulation event (port frees, a slave finishes),
  /// optionally capped by a WaitUntil target; false when nothing is ahead.
  bool advance(core::Time wait_until);

  platform::Platform platform_;      ///< nominal (what policies observe)
  platform::Platform eff_platform_;  ///< p_j scaled by current speed
  offline::StepSimulator sim_;       ///< seeded port/slave busy state
  core::Time now_ = 0.0;
  std::vector<std::uint8_t> online_;  ///< byte-dense for SlaveStateView
  std::vector<double> speed_;
  std::vector<core::Time> base_ready_;  ///< snapshot slave_ready_at
  std::vector<int> base_in_system_;     ///< snapshot tasks_in_system
  std::vector<std::vector<core::Time>> proj_comp_ends_;  ///< our commits
  std::deque<core::TaskId> pending_;           ///< FIFO, ids from the live view
  std::deque<core::TaskSpec> pending_specs_;   ///< aligned with pending_
  std::vector<std::pair<core::TaskId, core::SlaveId>> assigned_;
  int total_tasks_ = 0;
  int base_committed_ = 0;
  int commits_ = 0;
  core::Schedule schedule_;  ///< stays empty: projections do not record
  core::Trace trace_;        ///< stays empty
};

/// The portfolio's pre-incremental evaluation loop, frozen: at every
/// decision each member is rebuilt from its spec, reseeded counter-style
/// (fork(member index) off the member's spec seed, then the decision
/// ordinal) and forward-simulated on its own fresh EngineProjection of the
/// view. Works on any EngineView. tests/test_meta_incremental.cpp pins
/// PortfolioPolicy's delta-driven path byte-identical to it, and
/// bench_meta_perf times that path against it.
class RebuildPortfolioPolicy final : public MetaPolicy {
 public:
  explicit RebuildPortfolioPolicy(MetaSpec spec);

  core::Decision decide(const core::EngineView& engine) override;
  void reset() override;

  /// Decisions taken this run.
  long long decisions() const { return decisions_; }

 private:
  long long decisions_ = 0;
  int last_choice_ = -1;
};

}  // namespace msol::algorithms::meta
