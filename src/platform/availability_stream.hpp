#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "platform/availability.hpp"
#include "util/rng.hpp"

namespace msol::platform {

/// Generation parameters for on-demand availability spans: the same model
/// knobs generate_availability() takes, plus the seed the per-slave streams
/// are counter-forked from. `model == kAlways` means "no time-varying
/// availability" and is the inert default, so embedding this struct in
/// EngineOptions costs legacy runs nothing.
struct LazyAvailabilitySpec {
  AvailabilityModel model = AvailabilityModel::kAlways;
  double mtbf = 50.0;
  double outage_frac = 0.1;
  core::Time horizon = 1000.0;
  std::uint64_t seed = 0;

  bool enabled() const { return model != AvailabilityModel::kAlways; }
};

/// Throws std::invalid_argument on the same bad knobs
/// generate_availability() rejects (non-positive mtbf/horizon, outage_frac
/// outside [0, 0.9]); no-op for the kAlways model.
void validate(const LazyAvailabilitySpec& spec);

/// The engine's one view of a slave's availability timeline, with two
/// backings behind the same operations:
///
///   * lazy     one slave's counter-forked stream of a LazyAvailabilitySpec,
///              generated on demand: only the most recently applied span
///              plus whatever a forward query generated ahead is held,
///              instead of O(horizon/mtbf) spans up front;
///   * profile  a materialized AvailabilityProfile's spans, read in place
///              (the profile must outlive the cursor).
///
/// The engine drives it with three operations:
///
///   * next_begin()/advance()       the transition walk
///   * next_offline_after(t)        commit-time doom check
///   * run_work(start, work, until) piecewise compute integration
///
/// The queries fold forward from the most recently applied span, so they
/// must be anchored at or after that span's neighborhood — the engine's
/// monotone now() guarantees it. Under that discipline either backing
/// answers exactly as AvailabilityProfile's whole-timeline queries, the
/// oracle the tests and the validator check against.
///
/// A default-constructed cursor is the trivial always-online profile.
class AvailabilityCursor {
 public:
  AvailabilityCursor() = default;
  /// Lazy backing: slave `slave`'s stream of `spec`, independent of every
  /// other slave's (counter-forked from spec.seed).
  AvailabilityCursor(const LazyAvailabilitySpec& spec, int slave);
  /// Profile backing: walks `profile`'s spans in place.
  explicit AvailabilityCursor(const AvailabilityProfile& profile);

  /// True when this slave's realization has no spans at all (static slave).
  bool trivial() const;

  /// Begin of the next unapplied span, or +infinity when the realization is
  /// exhausted (the final state persists forever). Cached, and changed only
  /// by advance(): the engine keys its due-heap of transitions on it.
  core::Time next_begin() const { return next_begin_; }

  /// Consumes the next span (next_begin() must be finite) and returns it.
  AvailabilitySpan advance();

  /// First instant strictly after `t` at which the slave transitions from
  /// online to offline; nullopt when it never goes down again.
  std::optional<core::Time> next_offline_after(core::Time t);

  /// Advances `work` nominal-seconds of compute from `start`, honoring the
  /// piecewise speed, stopping at `until` (exclusive) when unfinished.
  AvailabilityProfile::WorkResult run_work(core::Time start, double work,
                                           core::Time until);

 private:
  /// Appends the next span (or span pair, for kChurn) to pending_; returns
  /// false once the generator is exhausted.
  bool generate();
  /// Ensures pending_ holds at least `k` spans (or the generator is done).
  bool ensure(std::size_t k);
  /// The `k`-th unapplied span (0 = next), generating on demand; nullptr
  /// once the realization is exhausted.
  const AvailabilitySpan* upcoming(std::size_t k);
  /// Span `i` of the virtual sequence [last_ (if retained), unapplied...];
  /// nullptr once the realization is exhausted.
  const AvailabilitySpan* span_at(std::size_t i);
  /// Re-reads next_begin_ from the next unapplied span (generating it).
  void refresh_next_begin();

  core::Time next_begin_ = std::numeric_limits<core::Time>::infinity();
  // --- most recently applied span (queries may anchor just before it) ------
  bool has_last_ = false;
  AvailabilitySpan last_{};
  bool base_online_ = true;  ///< state before last_ (after earlier spans)
  double base_speed_ = 1.0;

  // --- profile backing: [profile_next_, profile_end_) is unapplied ---------
  const AvailabilitySpan* profile_next_ = nullptr;
  const AvailabilitySpan* profile_end_ = nullptr;

  // --- lazy backing: generated-but-unapplied spans, oldest first -----------
  std::deque<AvailabilitySpan> pending_;
  bool lazy_ = false;
  bool done_ = true;
  AvailabilityModel model_ = AvailabilityModel::kAlways;
  double up_mean_ = 0.0;
  double down_mean_ = 0.0;
  double mtbf_ = 0.0;
  double outage_frac_ = 0.0;
  core::Time horizon_ = 0.0;
  core::Time t_ = 0.0;  ///< next event instant the generator will consider
  util::Rng rng_{0};
};

/// Materializes slave `stream`'s realization of `spec`: exactly the spans a
/// lazy AvailabilityCursor(spec, stream) replays. Trivial for kAlways.
AvailabilityProfile generate_availability_stream(
    const LazyAvailabilitySpec& spec, int stream);

/// Materializes the exact per-slave realizations the lazy cursors replay:
/// slave j's spans are generate_availability_stream(spec, j), drawn from
/// the independent stream child_seed(j) of spec.seed. This deliberately
/// differs from generate_availability(), whose single shared stream makes
/// slave j's draws depend on how many draws slaves 0..j-1 consumed — a
/// coupling an incremental generator cannot reproduce.
/// tests/test_availability_stream.cpp pins lazy == materialized
/// byte-for-byte through the engine.
std::vector<AvailabilityProfile> generate_availability_forked(
    const LazyAvailabilitySpec& spec, int num_slaves);

}  // namespace msol::platform
