#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"

namespace msol::core {

/// A live OnePortEngine seen without its dense arrays: every observable is
/// forwarded, slave_state() is not, so EngineView's batch probes
/// (completion_if_assigned_batch, best_completion_slave) and the policy
/// filters take their per-slave scalar loops over the forwarded virtual
/// probes instead of the ranking kernels.
///
/// Test support only: the scalar baseline that the kernel path is diffed
/// against (tests/test_engine_diff.cpp) and timed against
/// (bench/bench_fleet_scale.cpp). OnePortEngine is final, so the forwarding
/// calls devirtualize; what remains is one virtual call per observable, as
/// in the plain scalar loop.
class ScalarProbeView final : public EngineView {
 public:
  explicit ScalarProbeView(const OnePortEngine& engine) : engine_(engine) {}

  Time now() const override { return engine_.now(); }
  const platform::Platform& platform() const override {
    return engine_.platform();
  }
  Time port_free_at() const override { return engine_.port_free_at(); }
  bool is_available(SlaveId j) const override {
    return engine_.is_available(j);
  }
  double current_speed(SlaveId j) const override {
    return engine_.current_speed(j);
  }
  Time slave_ready_at(SlaveId j) const override {
    return engine_.slave_ready_at(j);
  }
  int tasks_in_system(SlaveId j) const override {
    return engine_.tasks_in_system(j);
  }
  TaskId pending_front() const override { return engine_.pending_front(); }
  std::vector<TaskId> pending_tasks() const override {
    return engine_.pending_tasks();
  }
  int pending_count() const override { return engine_.pending_count(); }
  int total_tasks() const override { return engine_.total_tasks(); }
  int completed_or_committed() const override {
    return engine_.completed_or_committed();
  }
  const TaskSpec& task_spec(TaskId i) const override {
    return engine_.task_spec(i);
  }
  std::optional<SlaveId> assignment_of(TaskId task) const override {
    return engine_.assignment_of(task);
  }
  Time completion_if_assigned(TaskId task, SlaveId j) const override {
    return engine_.completion_if_assigned(task, j);
  }
  const Schedule& schedule() const override { return engine_.schedule(); }
  const Trace& trace() const override { return engine_.trace(); }

 private:
  const OnePortEngine& engine_;
};

/// Runs `inner` with every consult routed through a ScalarProbeView of the
/// engine, so the same policy takes the scalar probe loops on the same
/// OnePortEngine. Schedules are bit-identical to running `inner` directly
/// (the differential suite's claim). Throws std::logic_error when handed a
/// view that is not a live OnePortEngine, as PortfolioPolicy does.
class ScalarProbeScheduler final : public OnlineScheduler {
 public:
  explicit ScalarProbeScheduler(std::unique_ptr<OnlineScheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Decision decide(const EngineView& engine) override {
    return inner_->decide(ScalarProbeView(live(engine)));
  }
  void on_task_released(const EngineView& engine, TaskId task) override {
    inner_->on_task_released(ScalarProbeView(live(engine)), task);
  }
  void reset() override { inner_->reset(); }

 private:
  const OnePortEngine& live(const EngineView& engine) const {
    const auto* one_port = dynamic_cast<const OnePortEngine*>(&engine);
    if (one_port == nullptr) {
      throw std::logic_error("ScalarProbeScheduler '" + inner_->name() +
                             "': needs a live OnePortEngine view");
    }
    return *one_port;
  }

  std::unique_ptr<OnlineScheduler> inner_;
};

}  // namespace msol::core
