#include "platform/availability_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace msol::platform {

namespace {
constexpr core::Time kInf = std::numeric_limits<core::Time>::infinity();
}  // namespace

void validate(const LazyAvailabilitySpec& spec) {
  if (spec.model == AvailabilityModel::kAlways) return;
  if (!(spec.mtbf > 0.0) || !std::isfinite(spec.mtbf)) {
    throw std::invalid_argument("LazyAvailabilitySpec: mtbf must be > 0");
  }
  if (!(spec.horizon > 0.0) || !std::isfinite(spec.horizon)) {
    throw std::invalid_argument("LazyAvailabilitySpec: horizon must be > 0");
  }
  if (spec.outage_frac < 0.0 || spec.outage_frac > 0.9) {
    throw std::invalid_argument(
        "LazyAvailabilitySpec: outage_frac must be in [0, 0.9]");
  }
}

AvailabilityCursor::AvailabilityCursor(const LazyAvailabilitySpec& spec,
                                       int slave)
    : lazy_(spec.enabled()),
      done_(!spec.enabled()),
      model_(spec.model),
      mtbf_(spec.mtbf),
      outage_frac_(spec.outage_frac),
      horizon_(spec.horizon),
      rng_(util::Rng(spec.seed).child_seed(slave)) {
  if (!lazy_) return;
  validate(spec);
  switch (model_) {
    case AvailabilityModel::kAlways:
      break;  // unreachable: lazy_ is false for kAlways
    case AvailabilityModel::kRareOutage:
      break;  // at most one span pair; drawn wholesale on first generate()
    case AvailabilityModel::kChurn:
      up_mean_ = mtbf_;
      down_mean_ = outage_frac_ > 0.0
                       ? mtbf_ * outage_frac_ / (1.0 - outage_frac_)
                       : 0.0;
      t_ = rng_.exponential(1.0 / up_mean_);
      done_ = !(t_ < horizon_ && down_mean_ > 0.0);
      break;
    case AvailabilityModel::kDrift:
      t_ = rng_.exponential(1.0 / mtbf_);
      done_ = !(t_ < horizon_);
      break;
  }
  refresh_next_begin();
}

AvailabilityCursor::AvailabilityCursor(const AvailabilityProfile& profile)
    : profile_next_(profile.spans().data()),
      profile_end_(profile.spans().data() + profile.spans().size()) {
  refresh_next_begin();
}

bool AvailabilityCursor::generate() {
  if (done_) return false;
  switch (model_) {
    case AvailabilityModel::kAlways:
      break;
    case AvailabilityModel::kRareOutage: {
      // Same draw discipline as generate_availability: chance and start are
      // consumed even when the slave escapes unscathed.
      const bool hit = rng_.chance(0.5);
      const core::Time len = outage_frac_ * horizon_;
      const core::Time start = rng_.uniform(0.0, horizon_);
      done_ = true;
      if (hit && len > 0.0) {
        pending_.push_back(AvailabilitySpan{start, false, 1.0});
        pending_.push_back(AvailabilitySpan{start + len, true, 1.0});
        return true;
      }
      return false;
    }
    case AvailabilityModel::kChurn: {
      // One down/up pair per step; t_ already holds the next failure instant
      // (drawn in the constructor or at the end of the previous step), so
      // `done_` is decidable without generating ahead.
      const core::Time down = rng_.exponential(1.0 / down_mean_);
      pending_.push_back(AvailabilitySpan{t_, false, 1.0});
      pending_.push_back(AvailabilitySpan{t_ + down, true, 1.0});
      t_ += down + rng_.exponential(1.0 / up_mean_);
      done_ = !(t_ < horizon_);
      return true;
    }
    case AvailabilityModel::kDrift: {
      pending_.push_back(AvailabilitySpan{t_, true, rng_.uniform(0.5, 1.5)});
      t_ += rng_.exponential(1.0 / mtbf_);
      done_ = !(t_ < horizon_);
      return true;
    }
  }
  done_ = true;
  return false;
}

bool AvailabilityCursor::ensure(std::size_t k) {
  while (pending_.size() < k && generate()) {
  }
  return pending_.size() >= k;
}

const AvailabilitySpan* AvailabilityCursor::upcoming(std::size_t k) {
  if (!lazy_) {
    // Profile backing (a default-constructed cursor is the empty profile).
    return k < static_cast<std::size_t>(profile_end_ - profile_next_)
               ? profile_next_ + k
               : nullptr;
  }
  // std::deque::push_back never invalidates element references, so the
  // pointer stays valid while the window grows behind it.
  return ensure(k + 1) ? &pending_[k] : nullptr;
}

const AvailabilitySpan* AvailabilityCursor::span_at(std::size_t i) {
  // Virtual sequence index i: 0 is the most recently applied span (when one
  // is retained), then the unapplied spans.
  if (has_last_) return i == 0 ? &last_ : upcoming(i - 1);
  return upcoming(i);
}

void AvailabilityCursor::refresh_next_begin() {
  const AvailabilitySpan* next = upcoming(0);
  next_begin_ = next == nullptr ? kInf : next->begin;
}

bool AvailabilityCursor::trivial() const {
  return !has_last_ && next_begin_ == kInf;
}

AvailabilitySpan AvailabilityCursor::advance() {
  const AvailabilitySpan* next = upcoming(0);
  if (next == nullptr) {
    throw std::logic_error("AvailabilityCursor::advance: realization exhausted");
  }
  const AvailabilitySpan span = *next;
  if (lazy_) {
    pending_.pop_front();
  } else {
    ++profile_next_;
  }
  if (has_last_) {
    base_online_ = last_.online;
    base_speed_ = last_.speed;
  }
  last_ = span;
  has_last_ = true;
  refresh_next_begin();
  return span;
}

std::optional<core::Time> AvailabilityCursor::next_offline_after(
    core::Time t) {
  // A lazy kDrift stream never goes offline: answer without generating
  // ahead — this is what keeps commit() O(1) in generated spans for it.
  if (lazy_ && model_ == AvailabilityModel::kDrift) return std::nullopt;
  bool online = base_online_;
  std::size_t i = 0;
  for (;;) {  // fold spans governing t (begin <= t)
    const AvailabilitySpan* s = span_at(i);
    if (s == nullptr) return std::nullopt;
    if (s->begin > t) break;
    online = s->online;
    ++i;
  }
  for (;;) {
    const AvailabilitySpan* s = span_at(i);
    if (s == nullptr) return std::nullopt;
    if (online && !s->online) return s->begin;
    online = s->online;
    ++i;
  }
}

AvailabilityProfile::WorkResult AvailabilityCursor::run_work(core::Time start,
                                                             double work,
                                                             core::Time until) {
  AvailabilityProfile::WorkResult result;
  core::Time cursor = start;
  double speed = base_speed_;
  std::size_t i = 0;
  for (;;) {  // fold spans governing start
    const AvailabilitySpan* s = span_at(i);
    if (s == nullptr || s->begin > start) break;
    speed = s->speed;
    ++i;
  }
  while (cursor < until) {
    const AvailabilitySpan* next = span_at(i);
    const core::Time segment_end =
        next != nullptr ? std::min(next->begin, until) : until;
    const double capacity = speed * (segment_end - cursor);
    const double remaining = work - result.work_done;
    if (remaining <= capacity) {
      result.completed = true;
      result.end = cursor + remaining / speed;
      result.work_done = work;
      return result;
    }
    result.work_done += capacity;
    cursor = segment_end;
    if (next != nullptr) speed = next->speed;
    ++i;
  }
  result.end = until;
  return result;
}

AvailabilityProfile generate_availability_stream(
    const LazyAvailabilitySpec& spec, int stream) {
  AvailabilityCursor cursor(spec, stream);
  std::vector<AvailabilitySpan> spans;
  while (std::isfinite(cursor.next_begin())) spans.push_back(cursor.advance());
  return AvailabilityProfile(std::move(spans));
}

std::vector<AvailabilityProfile> generate_availability_forked(
    const LazyAvailabilitySpec& spec, int num_slaves) {
  if (num_slaves <= 0) {
    throw std::invalid_argument(
        "generate_availability_forked: num_slaves must be > 0");
  }
  validate(spec);
  std::vector<AvailabilityProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(num_slaves));
  for (int j = 0; j < num_slaves; ++j) {
    profiles.push_back(generate_availability_stream(spec, j));
  }
  return profiles;
}

}  // namespace msol::platform
