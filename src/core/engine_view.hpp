#pragma once

#include <optional>
#include <vector>

#include "core/rank_kernel.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"

namespace msol::core {

/// The read-only simulation state a scheduler (or adversary) may observe:
/// the committed past and the currently released tasks — never future
/// releases, which is what makes the policies on-line.
///
/// Two production classes implement this interface: the OnePortEngine
/// (event driven, see engine.hpp) and the meta layer's
/// IncrementalProjection (algorithms/meta/projection.hpp), which forward-
/// simulates portfolio members over a mirror of a live engine. Test support
/// adds the frozen reference engine (the original scan-based loop,
/// tests/support/reference_engine.hpp), the fresh-snapshot projection
/// (tests/support/engine_projection.hpp) and the scalar-probe view of a
/// live engine (tests/support/scalar_probe_view.hpp). Schedulers are
/// written against this view so the differential harness in
/// tests/test_engine_diff.cpp can run the *same* policy on the production
/// and reference engines and require bit-identical schedules and traces.
class EngineView {
 public:
  virtual ~EngineView() = default;

  virtual Time now() const = 0;
  virtual const platform::Platform& platform() const = 0;

  /// Earliest time a master port is (or becomes) free, >= now().
  virtual Time port_free_at() const = 0;
  /// True if an unused port exists right now.
  bool port_free_now() const { return port_free_at() <= now() + kTimeEps; }

  /// True when slave j is reachable right now. Engines without time-varying
  /// availability (the paper's static platforms, and the frozen
  /// reference engine) are always-on. Schedulers must skip offline slaves:
  /// committing to one throws.
  virtual bool is_available(SlaveId j) const {
    (void)j;
    return true;
  }

  /// Slave j's current compute-speed multiplier (1.0 nominal; 0.0 while
  /// offline). Cost probes use the *current* speed only — future drift and
  /// outages stay invisible, which is what keeps the policies on-line.
  virtual double current_speed(SlaveId j) const {
    (void)j;
    return 1.0;
  }

  /// Time slave j finishes everything committed to it so far (its
  /// "ready-time" in the paper's terminology); == now() when idle. Under
  /// time-varying availability this is the master's best estimate: exact
  /// for work that will complete, current-speed extrapolation for work an
  /// unforeseen outage will wipe out.
  virtual Time slave_ready_at(SlaveId j) const = 0;
  /// True if slave j has no committed work beyond now().
  bool slave_free_now(SlaveId j) const {
    return slave_ready_at(j) <= now() + kTimeEps;
  }
  /// Committed-but-uncompleted tasks on slave j at now() (in flight on the
  /// link, waiting in the slave's queue, or computing). Queue-depth-aware
  /// policies (e.g. ThrottledLs) throttle on this.
  virtual int tasks_in_system(SlaveId j) const = 0;

  /// Oldest released, unassigned task (FIFO release order). Throws
  /// std::logic_error when nothing is pending; the engine only consults a
  /// scheduler while at least one task is pending, so a legal policy never
  /// sees the throw.
  virtual TaskId pending_front() const = 0;
  /// Released, unassigned task ids in FIFO release order. Materializes a
  /// fresh vector — meant for inspection and tests, not per-decision hot
  /// paths (front + count cover the registry policies).
  virtual std::vector<TaskId> pending_tasks() const = 0;
  virtual int pending_count() const = 0;

  virtual int total_tasks() const = 0;
  virtual int completed_or_committed() const = 0;
  virtual const TaskSpec& task_spec(TaskId i) const = 0;

  /// Slave the task was committed to, or nullopt if still unassigned.
  virtual std::optional<SlaveId> assignment_of(TaskId task) const = 0;
  /// True once the send for `task` has begun (commitment implies the send
  /// starts immediately in both engines).
  bool send_started(TaskId task) const {
    return assignment_of(task).has_value();
  }

  /// Estimated completion time of a *hypothetical* commitment of `task` to
  /// slave j made at time now(): the quantity list scheduling minimizes.
  /// Deliberately nominal — blind to injected background load.
  virtual Time completion_if_assigned(TaskId task, SlaveId j) const = 0;

  /// Structure-of-arrays snapshot of the per-slave probe state
  /// (core/rank_kernel.hpp), the one virtual dense channel: the two batch
  /// probes below and the policy filters run over it when it is non-empty.
  /// Views without dense arrays return an empty() one and are probed slave
  /// by slave — the reference engine on purpose, so the differential
  /// harness pins the kernels against the scalar semantics. Pointers are
  /// valid only until the view's next mutation.
  virtual SlaveStateView slave_state() const { return SlaveStateView{}; }

  /// Batched completion probe: out[i] = completion_if_assigned(task,
  /// slaves[i]) for n candidate slaves. Non-virtual: with dense state the
  /// per-task terms (spec lookup, send-start max chain) are hoisted and the
  /// gather kernel runs over slave_state(); without it, the plain probe
  /// loop.
  void completion_if_assigned_batch(TaskId task, const SlaveId* slaves, int n,
                                    Time* out) const;

  /// The available slave minimizing completion_if_assigned(task, j), with
  /// list scheduling's exact tie-break: a later slave wins only when
  /// strictly better by more than kTimeEps; -1 when no slave is available.
  /// Non-virtual, like the batch probe: dense views hoist the send-start
  /// term and run the block-skip argmin kernel (LS's inner loop becomes
  /// one call instead of m virtual probes); the rest run the generic scan,
  /// which the differential suite compares bit for bit. Both batch probes
  /// are defined in engine.cpp.
  SlaveId best_completion_slave(TaskId task) const;

  /// The committed schedule so far (records are complete at commitment,
  /// since a commitment fully determines the task's trajectory).
  virtual const Schedule& schedule() const = 0;

  /// The decision/event log; empty unless tracing was enabled.
  virtual const Trace& trace() const = 0;
};

}  // namespace msol::core
