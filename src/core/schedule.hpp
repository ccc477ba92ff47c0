#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace msol::core {

/// The three objective functions of the paper (Sec 2).
enum class Objective {
  kMakespan,  ///< max C_i
  kMaxFlow,   ///< max (C_i - r_i)
  kSumFlow,   ///< sum (C_i - r_i)
};

std::string to_string(Objective objective);
const std::vector<Objective>& all_objectives();

/// Full trajectory of one scheduled task through the one-port model.
struct TaskRecord {
  TaskId task = -1;
  SlaveId slave = -1;
  Time release = 0.0;
  Time send_start = 0.0;  ///< master's port acquired
  Time send_end = 0.0;    ///< arrival at the slave; port released
  Time comp_start = 0.0;  ///< slave starts executing
  Time comp_end = 0.0;    ///< C_i

  Time flow() const { return comp_end - release; }
};

/// A completed (or partial) schedule: the per-task records plus the metric
/// evaluations the paper reports.
class Schedule {
 public:
  Schedule() = default;
  /// Adopts records already in their final order (no per-record add()).
  explicit Schedule(std::vector<TaskRecord> records)
      : records_(std::move(records)) {}

  void add(TaskRecord record) { records_.push_back(record); }

  /// Drops all records but keeps the allocation (reusable-engine support).
  void clear() { records_.clear(); }

  int size() const { return static_cast<int>(records_.size()); }
  bool empty() const { return records_.empty(); }
  const TaskRecord& at(int i) const { return records_[static_cast<std::size_t>(i)]; }
  const std::vector<TaskRecord>& records() const { return records_; }

  /// Record for a given task id, or nullptr when the task is unscheduled.
  const TaskRecord* find(TaskId task) const;

  Time makespan() const;
  Time max_flow() const;
  Time sum_flow() const;
  double objective(Objective objective) const;

 private:
  std::vector<TaskRecord> records_;
};

}  // namespace msol::core
