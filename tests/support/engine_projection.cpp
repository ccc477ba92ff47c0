// The fresh-snapshot projection and the rebuild-every-decision portfolio,
// frozen as the differential oracles for the meta layer's delta-driven
// evaluation path (algorithms/meta/projection.hpp, meta_policy.hpp).
// Test- and bench-only; keep them boring.

#include "support/engine_projection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <variant>

#include "algorithms/policy.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {

namespace {

/// The effective platform the step simulator runs on: nominal c_j, p_j
/// scaled by the slave's current speed so projected compute times match the
/// live engine's current-speed probes. Offline slaves keep nominal p_j —
/// they reject commits and probe as infinity, so the value is never used.
platform::Platform effective_platform(const core::EngineView& live) {
  std::vector<platform::SlaveSpec> slaves;
  slaves.reserve(static_cast<std::size_t>(live.platform().size()));
  for (core::SlaveId j = 0; j < live.platform().size(); ++j) {
    const double speed = live.current_speed(j);
    platform::SlaveSpec spec = live.platform().at(j);
    if (speed > 0.0) spec.comp /= speed;
    slaves.push_back(spec);
  }
  return platform::Platform(std::move(slaves));
}

/// The per-evaluation member seed: fork(member index) off the member's spec
/// seed, then the decision ordinal — counter-style, so evaluations are pure
/// and thread-count independent.
std::uint64_t member_eval_seed(const PolicySpec& member, int index,
                               long long decisions) {
  return util::Rng(util::Rng(member.seed).child_seed(
                       static_cast<std::uint64_t>(index)))
      .child_seed(static_cast<std::uint64_t>(decisions));
}

}  // namespace

EngineProjection::EngineProjection(const core::EngineView& live)
    : platform_(live.platform()),
      eff_platform_(effective_platform(live)),
      sim_(eff_platform_),
      now_(live.now()) {
  const int m = platform_.size();
  online_.resize(static_cast<std::size_t>(m));
  speed_.resize(static_cast<std::size_t>(m));
  base_ready_.resize(static_cast<std::size_t>(m));
  base_in_system_.resize(static_cast<std::size_t>(m));
  proj_comp_ends_.resize(static_cast<std::size_t>(m));
  for (core::SlaveId j = 0; j < m; ++j) {
    const auto js = static_cast<std::size_t>(j);
    online_[js] = live.is_available(j);
    speed_[js] = live.current_speed(j);
    base_ready_[js] = live.slave_ready_at(j);
    base_in_system_[js] = live.tasks_in_system(j);
    sim_.slave_ready[js] = base_ready_[js];
  }
  sim_.master_free = live.port_free_at();
  for (core::TaskId id : live.pending_tasks()) {
    pending_.push_back(id);
    pending_specs_.push_back(live.task_spec(id));
  }
  total_tasks_ = live.total_tasks();
  base_committed_ = live.completed_or_committed();
}

core::Time EngineProjection::port_free_at() const {
  return std::max(now_, sim_.master_free);
}

bool EngineProjection::is_available(core::SlaveId j) const {
  return online_[static_cast<std::size_t>(j)];
}

double EngineProjection::current_speed(core::SlaveId j) const {
  return speed_[static_cast<std::size_t>(j)];
}

core::Time EngineProjection::slave_ready_at(core::SlaveId j) const {
  return std::max(now_, sim_.slave_ready[static_cast<std::size_t>(j)]);
}

int EngineProjection::tasks_in_system(core::SlaveId j) const {
  const auto js = static_cast<std::size_t>(j);
  // The snapshot count survives until the snapshot ready-time passes (the
  // view exposes no per-task completion instants for the committed past),
  // then our own projected commits count exactly.
  int n = now_ + core::kTimeEps < base_ready_[js] ? base_in_system_[js] : 0;
  for (core::Time end : proj_comp_ends_[js]) {
    if (end > now_ + core::kTimeEps) ++n;
  }
  return n;
}

core::TaskId EngineProjection::pending_front() const {
  if (pending_.empty()) {
    throw std::logic_error("EngineProjection: no pending task");
  }
  return pending_.front();
}

std::vector<core::TaskId> EngineProjection::pending_tasks() const {
  return std::vector<core::TaskId>(pending_.begin(), pending_.end());
}

int EngineProjection::pending_count() const {
  return static_cast<int>(pending_.size());
}

const core::TaskSpec& EngineProjection::task_spec(core::TaskId i) const {
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (pending_[k] == i) return pending_specs_[k];
  }
  throw std::out_of_range(
      "EngineProjection: task_spec is only available for pending tasks");
}

std::optional<core::SlaveId> EngineProjection::assignment_of(
    core::TaskId task) const {
  // Restricted to the projection's own commits: assignments of the live
  // engine's committed past are not re-exposed (no registry policy reads
  // them, and the snapshot does not copy the full schedule).
  for (const auto& [id, slave] : assigned_) {
    if (id == task) return slave;
  }
  return std::nullopt;
}

core::Time EngineProjection::completion_if_assigned(core::TaskId task,
                                                    core::SlaveId j) const {
  if (!online_[static_cast<std::size_t>(j)]) {
    return std::numeric_limits<core::Time>::infinity();
  }
  const core::TaskSpec& spec = task_spec(task);
  const core::Time send_start =
      std::max({now_, port_free_at(), spec.release});
  const core::Time send_end =
      send_start + platform_.comm(j) * spec.comm_factor;
  const core::Time comp_start = std::max(send_end, slave_ready_at(j));
  return comp_start + eff_platform_.comp(j) * spec.comp_factor;
}

core::SlaveStateView EngineProjection::slave_state() const {
  // The effective comp array already folds the frozen speed in, so the
  // kernel runs its no-division form (speed stays null).
  core::SlaveStateView s;
  s.comm = platform_.comm_data();
  s.comp = eff_platform_.comp_data();
  s.ready = sim_.slave_ready.data();
  s.online = online_.data();
  s.m = platform_.size();
  return s;
}

void EngineProjection::commit(const core::Assign& assign) {
  if (pending_.empty() || assign.task != pending_.front()) {
    throw std::logic_error(
        "EngineProjection: policies may only commit the pending front task");
  }
  if (assign.slave < 0 || assign.slave >= platform_.size() ||
      !online_[static_cast<std::size_t>(assign.slave)]) {
    throw std::logic_error(
        "EngineProjection: commit to an offline or invalid slave");
  }
  // The port is free at now_ here (run() only consults the policy then), so
  // the FIFO step's max(master_free, release) send-start matches the live
  // engine's max({now, port_free, release}).
  sim_.master_free = std::max(sim_.master_free, now_);
  core::TaskSpec spec = pending_specs_.front();
  spec.release = std::min(spec.release, now_);  // released in the past
  const core::TaskRecord rec =
      sim_.step(assign.task, spec, assign.slave);
  proj_comp_ends_[static_cast<std::size_t>(assign.slave)].push_back(
      rec.comp_end);
  assigned_.emplace_back(assign.task, assign.slave);
  pending_.pop_front();
  pending_specs_.pop_front();
  ++commits_;
}

bool EngineProjection::advance(core::Time wait_until) {
  core::Time next = std::numeric_limits<core::Time>::infinity();
  const auto consider = [&](core::Time t) {
    if (t > now_ + core::kTimeEps && t < next) next = t;
  };
  consider(sim_.master_free);
  for (core::SlaveId j = 0; j < platform_.size(); ++j) {
    consider(sim_.slave_ready[static_cast<std::size_t>(j)]);
  }
  consider(wait_until);
  if (!std::isfinite(next)) return false;
  now_ = next;
  return true;
}

ProjectionOutcome EngineProjection::run(core::OnlineScheduler& policy,
                                        int horizon) {
  ProjectionOutcome out;
  out.makespan = now_;
  bool first_recorded = false;
  const core::Time no_wait = std::numeric_limits<core::Time>::infinity();
  while (commits_ < horizon && !pending_.empty()) {
    if (!port_free_now()) {
      if (!advance(no_wait)) {
        out.stalled = true;
        break;
      }
      continue;
    }
    const core::Decision decision = policy.decide(*this);
    if (!first_recorded) {
      out.first = decision;
      first_recorded = true;
    }
    if (const auto* assign = std::get_if<core::Assign>(&decision)) {
      commit(*assign);
      out.makespan = std::max(
          out.makespan,
          proj_comp_ends_[static_cast<std::size_t>(assign->slave)].back());
    } else if (const auto* wait = std::get_if<core::WaitUntil>(&decision)) {
      if (!advance(wait->time)) {
        out.stalled = true;
        break;
      }
    } else {
      if (!advance(no_wait)) {
        out.stalled = true;
        break;
      }
    }
  }
  out.commits = commits_;
  return out;
}

// ---------------------------------------------------------------------------
// RebuildPortfolioPolicy
// ---------------------------------------------------------------------------

RebuildPortfolioPolicy::RebuildPortfolioPolicy(MetaSpec spec)
    : MetaPolicy(std::move(spec)) {
  if (spec_.kind != MetaKind::kPortfolio) {
    throw std::invalid_argument(
        "RebuildPortfolioPolicy: spec is not portfolio:");
  }
}

core::Decision RebuildPortfolioPolicy::decide(const core::EngineView& engine) {
  const int horizon = std::min(spec_.horizon, engine.pending_count());
  int best = 0;
  ProjectionOutcome best_out;
  for (int i = 0; i < static_cast<int>(spec_.members.size()); ++i) {
    PolicySpec member = spec_.members[static_cast<std::size_t>(i)];
    member.seed = member_eval_seed(member, i, decisions_);
    ComposedPolicy policy(member);
    EngineProjection projection(engine);
    const ProjectionOutcome out = projection.run(policy, horizon);
    if (i == 0 || out.commits > best_out.commits ||
        (out.commits == best_out.commits &&
         out.makespan < best_out.makespan - core::kTimeEps)) {
      best = i;
      best_out = out;
    }
  }
  if (last_choice_ >= 0 && best != last_choice_) ++switches_;
  last_choice_ = best;
  ++decisions_;
  return best_out.first;
}

void RebuildPortfolioPolicy::reset() {
  decisions_ = 0;
  last_choice_ = -1;
  switches_ = 0;
}

}  // namespace msol::algorithms::meta
