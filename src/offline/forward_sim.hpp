#pragma once

#include <algorithm>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"

namespace msol::offline {

/// Deterministic forward simulation of a *fixed* assignment under the
/// one-port model: tasks are sent in release (FIFO) order with no inserted
/// idle time, task i going to `assignment[i]`.
///
/// Why FIFO-no-idle is enough to search over (exchange argument, used by
/// the exhaustive solver): tasks are identical, so permuting which task id
/// occupies which send slot only re-labels releases; matching sorted
/// releases to sorted send slots (= FIFO) is feasible whenever any matching
/// is, and delaying a send can only push completions later, which never
/// improves makespan, max-flow, or sum-flow.
core::Schedule simulate_assignment(const platform::Platform& platform,
                                   const core::Workload& workload,
                                   const std::vector<core::SlaveId>& assignment);

/// Incremental form of the same one-port FIFO arithmetic: one task is
/// committed per step(), and the port/slave state is public so callers can
/// seed it mid-run. simulate_assignment / evaluate_assignment are thin
/// loops over this class. The meta layer's projection
/// (algorithms/meta/projection.hpp) inlines the same step over its mirror
/// of a live engine; its fresh-snapshot test oracle seeds `master_free` /
/// `slave_ready` from the live observables and continues from there.
class StepSimulator {
 public:
  explicit StepSimulator(const platform::Platform& platform)
      : slave_ready(static_cast<std::size_t>(platform.size()), 0.0),
        platform_(&platform) {}

  /// Commits `spec` (task id `task`) to slave j: the send starts at
  /// max(master_free, release), with no inserted idle. Returns the fully
  /// timed record and advances the port and slave state.
  core::TaskRecord step(core::TaskId task, const core::TaskSpec& spec,
                        core::SlaveId j) {
    core::TaskRecord rec;
    rec.task = task;
    rec.slave = j;
    rec.release = spec.release;
    rec.send_start = std::max(master_free, spec.release);
    rec.send_end = rec.send_start + platform_->comm(j) * spec.comm_factor;
    rec.comp_start =
        std::max(rec.send_end, slave_ready[static_cast<std::size_t>(j)]);
    rec.comp_end = rec.comp_start + platform_->comp(j) * spec.comp_factor;
    master_free = rec.send_end;
    slave_ready[static_cast<std::size_t>(j)] = rec.comp_end;
    return rec;
  }

  const platform::Platform& platform() const { return *platform_; }

  /// Time the master's port frees; seedable (>= 0).
  core::Time master_free = 0.0;
  /// Per-slave busy-until times; seedable.
  std::vector<core::Time> slave_ready;

 private:
  const platform::Platform* platform_;
};

/// Objective values of simulate_assignment without materializing records;
/// used in the exhaustive solver's hot loop.
struct ObjectiveTriple {
  core::Time makespan = 0.0;
  core::Time max_flow = 0.0;
  core::Time sum_flow = 0.0;

  double get(core::Objective objective) const;
};

ObjectiveTriple evaluate_assignment(const platform::Platform& platform,
                                    const core::Workload& workload,
                                    const std::vector<core::SlaveId>& assignment);

}  // namespace msol::offline
