#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace msol::core {

/// What a queue entry announces. Entries carry no payload beyond the
/// instant: the engine re-derives all state from its own bookkeeping when it
/// wakes, so a passed entry is at worst a no-op that the engine prunes
/// before acting (see OnePortEngine::next_wakeup).
///
/// OnePortEngine pushes kCompletion entries only: the one family it would
/// otherwise have to scan for. Releases, port frees, availability
/// transitions and the live WaitUntil each have their own O(1)-to-consult
/// source in the engine. The other kinds remain part of the entry format
/// until the calendar queue is retired (tests/test_event_queue.cpp pushes
/// them).
enum class EventKind : std::uint8_t {
  kCompletion,     ///< a slave finishes one task (the last one pending on a
                   ///< slave doubles as its slave-free instant)
  kSchedulerWake,  ///< a WaitUntil request comes due
  kAvailability,   ///< some slave's availability profile has a transition
                   ///< (outage begin/end or speed drift) at this instant
};

/// One queue entry. `gen` is a caller-managed generation stamp a caller may
/// use to invalidate entries lazily; kinds that are facts once emitted
/// (completions, the only kind OnePortEngine pushes) leave it at 0.
struct Event {
  Time time = 0.0;
  EventKind kind = EventKind::kCompletion;
  std::uint32_t gen = 0;
};

/// Which machinery orders the pending events.
///
///   kHeap     — binary min-heap, O(log n) per op: the default, and the only
///               queue OnePortEngine uses. The engine's queue holds in-flight
///               completions only, at most about m entries, a size that
///               suits a heap.
///   kCalendar — Brown-style bucketed calendar queue: O(1) amortized push
///               and pop for a dense moving window of near-future instants.
///               No production path uses it; it stays solely for
///               perfbench's event-queue replay probe
///               (core.event_queue.calendar_ns_per_op).
///
/// The choice is made at construction / configure() time; there is no
/// mid-stream migration.
enum class EventQueueImpl : std::uint8_t { kCalendar, kHeap };

/// The event-driven engine's source of future completion instants.
/// Replaces the per-step linear scans over slaves and per-slave completion
/// lists that the original engine (retained as the test-support reference
/// engine) performs in its next_wakeup().
///
/// Contract (all the engine relies on, and all the two implementations
/// promise): pop() consumes entries in nondecreasing time order, top() is
/// an entry of minimum time, and nothing is ever lost or duplicated. Ties
/// on time may surface in any implementation-specific order — only the
/// minimum *instant* is ever consumed, never the entry identity
/// (tests/test_event_queue.cpp fuzzes exactly this contract against both
/// implementations).
///
/// Deletion is lazy: consumers pop entries that their own state proves
/// stale (in the past, or superseded by the caller's own `gen` stamps).
///
/// Times must be non-negative and finite (simulation instants); push
/// throws std::invalid_argument otherwise.
class EventQueue {
 public:
  explicit EventQueue(EventQueueImpl impl = EventQueueImpl::kHeap);

  /// Re-selects the implementation and drops every entry (allocations are
  /// kept, so a reused engine stops paying per-cell growth in grid sweeps).
  void configure(EventQueueImpl impl);
  EventQueueImpl impl() const { return impl_; }

  void push(Time time, EventKind kind, std::uint32_t gen = 0);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// An entry of earliest time; undefined when empty().
  const Event& top() const;

  void pop();

  /// Drops every entry but keeps the allocation, so a reused engine stops
  /// paying per-cell heap/bucket growth in grid sweeps.
  void clear();

 private:
  // --- calendar machinery ---------------------------------------------------
  std::size_t bucket_of(Time t) const;
  /// Locates the minimum entry (bucket index cached; the minimum of a
  /// bucket is always its back, buckets being sorted descending by time).
  void find_min() const;
  void insert_calendar(const Event& e);
  /// Rebuilds the bucket array for the current size: new bucket count and a
  /// width estimated from the gaps of the earliest entries (the classic
  /// calendar-queue sizing rule).
  void resize_calendar(std::size_t nbuckets);

  EventQueueImpl impl_;
  std::size_t size_ = 0;

  // Heap storage (impl_ == kHeap).
  std::vector<Event> heap_;

  // Calendar storage (impl_ == kCalendar). Each bucket is sorted by time
  // descending, so its minimum is back() and pop is O(1) once located.
  std::vector<std::vector<Event>> buckets_;
  std::size_t nbuckets_ = 0;   ///< always a power of two
  std::size_t bucket_mask_ = 0;
  double width_ = 1.0;         ///< seconds of simulated time per bucket
  /// Lower bound on every stored entry's time: raised to each popped
  /// minimum, lowered by an out-of-order push. find_min starts its
  /// year-window scan here, which is what makes successive pops amortized
  /// O(1) — the scan position only moves forward with the popped times.
  double floor_time_ = 0.0;
  /// Cached location of the minimum entry (valid when cmin_bucket_ is not
  /// npos): maintained across pushes, invalidated by pop. Mutable so the
  /// const top() can lazily re-locate after a pop.
  mutable std::size_t cmin_bucket_ = kNpos;
  std::vector<Event> scratch_;  ///< resize_calendar's flatten buffer

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 16;
};

}  // namespace msol::core
