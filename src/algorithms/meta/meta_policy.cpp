#include "algorithms/meta/meta_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "algorithms/meta/projection.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {

// ---------------------------------------------------------------------------
// PortfolioPolicy
// ---------------------------------------------------------------------------

PortfolioPolicy::PortfolioPolicy(MetaSpec spec)
    : MetaPolicy(std::move(spec)) {
  if (spec_.kind != MetaKind::kPortfolio) {
    throw std::invalid_argument("PortfolioPolicy: spec is not portfolio:");
  }
  member_uses_rng_.reserve(spec_.members.size());
  for (const PolicySpec& member : spec_.members) {
    // tie_rng_ is the only seed consumer in ComposedPolicy, so a member
    // whose tie-break is not rng is a deterministic function of the
    // snapshot — memoizable. An rng member's stream position depends on the
    // decision ordinal and must be re-simulated every consult.
    member_uses_rng_.push_back(member.tie == TieKind::kRng ? 1 : 0);
  }
}

/// The per-evaluation member seed: fork(member index) off the member's spec
/// seed, then the decision ordinal — counter-style, so evaluations are pure
/// and thread-count independent.
static std::uint64_t member_eval_seed(const PolicySpec& member, int index,
                                      long long decisions) {
  return util::Rng(util::Rng(member.seed).child_seed(
                       static_cast<std::uint64_t>(index)))
      .child_seed(static_cast<std::uint64_t>(decisions));
}

core::Decision PortfolioPolicy::decide(const core::EngineView& engine) {
  const auto* live = dynamic_cast<const core::OnePortEngine*>(&engine);
  if (live == nullptr) {
    throw std::logic_error(
        "PortfolioPolicy '" + name_ +
        "': decide() needs a live OnePortEngine view (the projection "
        "subscribes to its delta feed)");
  }
  const int horizon = std::min(spec_.horizon, engine.pending_count());

  // One persistent delta-synced projection shared by all members, cached
  // member policies reseeded per evaluation (reseed == fresh construction
  // for decide(), see ComposedPolicy::reseed), and a stamp memo that skips
  // deterministic members when nothing observable changed since the
  // previous consult.
  if (!incremental_ || incremental_->engine() != live) {
    incremental_ = std::make_unique<IncrementalProjection>(*live);
    memo_key_.valid = false;
  }
  incremental_->sync();
  if (members_.empty()) {
    members_.reserve(spec_.members.size());
    for (const PolicySpec& member : spec_.members) {
      members_.push_back(std::make_unique<ComposedPolicy>(member));
    }
    memo_.resize(spec_.members.size());
  }
  // Every observable is covered: delta seq (pending set, commits,
  // availability), now (time-derived observables), total_tasks (inject_task
  // is not delta-logged); generation guards engine reuse, and the per-field
  // stamps are belt-and-braces against any future mutation path that
  // bumps a stamp without logging.
  MemoKey key;
  key.valid = true;
  key.generation = live->delta_generation();
  key.seq = live->delta_end();
  key.load = live->load_stamp();
  key.ready = live->ready_stamp();
  key.avail = live->avail_stamp();
  key.now = engine.now();
  key.total_tasks = engine.total_tasks();
  const bool memo_usable =
      memo_key_.valid && key.generation == memo_key_.generation &&
      key.seq == memo_key_.seq && key.load == memo_key_.load &&
      key.ready == memo_key_.ready && key.avail == memo_key_.avail &&
      key.now == memo_key_.now && key.total_tasks == memo_key_.total_tasks;
  int best = 0;
  ProjectionOutcome best_out;
  for (int i = 0; i < static_cast<int>(spec_.members.size()); ++i) {
    const auto is = static_cast<std::size_t>(i);
    ProjectionOutcome out;
    if (memo_usable && member_uses_rng_[is] == 0) {
      out = memo_[is];
      ++memo_hits_;
    } else {
      members_[is]->reseed(member_eval_seed(spec_.members[is], i, decisions_));
      out = incremental_->run(*members_[is], horizon);
      memo_[is] = out;
    }
    if (i == 0 || out.commits > best_out.commits ||
        (out.commits == best_out.commits &&
         out.makespan < best_out.makespan - core::kTimeEps)) {
      best = i;
      best_out = out;
    }
  }
  memo_key_ = key;
  if (last_choice_ >= 0 && best != last_choice_) ++switches_;
  last_choice_ = best;
  ++decisions_;
  return best_out.first;
}

void PortfolioPolicy::reset() {
  decisions_ = 0;
  last_choice_ = -1;
  switches_ = 0;
  memo_hits_ = 0;
  memo_key_.valid = false;
  // Dropped, not kept: a reset policy may next run against a different
  // engine object (simulate()'s thread-local engines are per-thread, but
  // harness code constructs engines on the stack), and a dangling live
  // pointer must not survive into that run.
  incremental_.reset();
}

// ---------------------------------------------------------------------------
// HedgePolicy
// ---------------------------------------------------------------------------

HedgePolicy::HedgePolicy(MetaSpec spec)
    : MetaPolicy(std::move(spec)),
      // spec_ lives in the base subobject, so it is initialized by the time
      // the detector member is constructed.
      detector_(RegimeConfig{spec_.window, spec_.hysteresis}) {
  if (spec_.kind != MetaKind::kHedge) {
    throw std::invalid_argument("HedgePolicy: spec is not hedge:");
  }
  for (const PolicySpec& member : spec_.members) {
    members_.push_back(std::make_unique<ComposedPolicy>(member));
  }
}

core::Decision HedgePolicy::decide(const core::EngineView& engine) {
  detector_.observe(engine);
  const int want = detector_.stressed() ? 1 : 0;
  if (want != active_) {
    ++switches_;
    active_ = want;
  }
  return members_[static_cast<std::size_t>(active_)]->decide(engine);
}

void HedgePolicy::on_task_released(const core::EngineView& engine,
                                   core::TaskId task) {
  detector_.observe_release(engine.task_spec(task).release);
  for (auto& member : members_) member->on_task_released(engine, task);
}

void HedgePolicy::reset() {
  detector_.reset();
  for (auto& member : members_) member->reset();
  active_ = 0;
  switches_ = 0;
}

// ---------------------------------------------------------------------------

std::unique_ptr<core::OnlineScheduler> make_meta_policy(const MetaSpec& spec) {
  switch (spec.kind) {
    case MetaKind::kPortfolio:
      return std::make_unique<PortfolioPolicy>(spec);
    case MetaKind::kHedge:
      return std::make_unique<HedgePolicy>(spec);
  }
  throw std::invalid_argument("make_meta_policy: unknown meta kind");
}

}  // namespace msol::algorithms::meta
