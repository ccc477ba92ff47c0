#pragma once

#include <string>
#include <variant>

#include "core/types.hpp"

namespace msol::core {

class EngineView;

/// Commit a pending task to a slave: the send begins immediately.
struct Assign {
  TaskId task;
  SlaveId slave;
};

/// Deliberately leave the master idle until the next event (a new release,
/// a port becoming free, or a slave finishing — including intermediate
/// queue completions). SRPT uses this to wait for a free slave; the theorem
/// adversaries rely on schedules being *allowed* to wait ("Nothing forces A
/// to send the task as soon as possible").
struct Defer {};

/// Leave the master idle until the given absolute time (or the next event,
/// whichever comes first), then ask again. Lets a policy stall without any
/// external event to wake it — the fully general waiting the proofs permit.
struct WaitUntil {
  Time time;
};

using Decision = std::variant<Assign, Defer, WaitUntil>;

/// A deterministic on-line scheduling policy.
///
/// The engine calls decide() whenever (a) the master's port is free and
/// (b) at least one released task is unassigned. The scheduler sees only the
/// committed past and the currently released tasks through the EngineView
/// interface — never future releases, which is what makes it on-line.
/// Policies take the abstract view (not a concrete engine) so the same
/// instance can drive both the event-calendar OnePortEngine and the frozen
/// reference engine the differential tests compare against (a test-support
/// oracle, tests/support/reference_engine.hpp).
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  virtual std::string name() const = 0;

  virtual Decision decide(const EngineView& engine) = 0;

  /// Notification that `task` just became available on the master.
  virtual void on_task_released(const EngineView& engine, TaskId task) {
    (void)engine;
    (void)task;
  }

  /// Clear any internal state so the instance can run a fresh workload.
  virtual void reset() {}
};

}  // namespace msol::core
