// Property fuzz for the dual-implementation EventQueue: the bucketed
// calendar queue must honor exactly the contract the heap does — pops in
// nondecreasing time order, top() always a minimum, no entry ever lost or
// duplicated — across randomized push/pop interleavings drawn from the
// distributions that stress a calendar queue specifically (all ties at one
// instant, heavy-tailed gaps, a dense advancing window, grow/shrink
// churn). Ties may surface in different orders between implementations, so
// equality is asserted per-timestamp as a multiset of (kind, gen) payloads,
// never as a literal sequence.
//
// Labeled `fuzz` (see CMakeLists), so the ASan/UBSan CI leg runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

using Payload = std::pair<EventKind, std::uint32_t>;

/// Oracle: a sorted multimap time -> payload multiset. Mirrors every push;
/// every pop must match its minimum key and remove one matching payload.
class Model {
 public:
  void push(Time t, EventKind kind, std::uint32_t gen) {
    entries_.emplace(t, Payload{kind, gen});
  }

  std::size_t size() const { return entries_.size(); }

  /// Consumes one entry equal to `e`; fails the test if the queue surfaced
  /// a time that is not the minimum or a payload never pushed (duplicate /
  /// corrupted entry).
  void consume(const Event& e, const std::string& label) {
    ASSERT_FALSE(entries_.empty()) << label << ": pop from empty model";
    ASSERT_EQ(e.time, entries_.begin()->first)
        << label << ": popped time is not the minimum";
    auto [lo, hi] = entries_.equal_range(e.time);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == Payload{e.kind, e.gen}) {
        entries_.erase(it);
        return;
      }
    }
    FAIL() << label << ": popped payload was never pushed (kind="
           << static_cast<int>(e.kind) << " gen=" << e.gen << " t=" << e.time
           << ")";
  }

 private:
  std::multimap<Time, Payload> entries_;
};

/// Drives one queue implementation through `ops` randomized operations and
/// checks it against the model and the nondecreasing-pop invariant. Returns
/// the total number of pops (so a differential caller can compare).
void fuzz_impl(EventQueueImpl impl, std::uint64_t seed, int ops,
               const std::string& label) {
  EventQueue queue(impl);
  Model model;
  util::Rng rng(seed);

  Time cursor = 0.0;  // advancing window base (engine-like pattern)
  const int regime = static_cast<int>(seed % 4);

  const auto draw_time = [&]() -> Time {
    switch (regime) {
      case 0:  // uniform over a fixed horizon
        return rng.uniform(0.0, 100.0);
      case 1:  // every entry at one instant: the calendar's degenerate case
        return 42.0;
      case 2: {  // heavy-tailed gaps: u^-3 spans ~6 orders of magnitude
        const double u = rng.uniform(0.01, 1.0);
        return cursor + 1.0 / (u * u * u);
      }
      default:  // dense moving window just ahead of the cursor
        return cursor + rng.uniform(0.0, 2.0);
    }
  };

  for (int op = 0; op < ops; ++op) {
    const int roll = static_cast<int>(rng.uniform_int(0, 99));
    if (roll < 55 || queue.empty()) {
      const Time t = draw_time();
      const EventKind kind =
          static_cast<EventKind>(rng.uniform_int(0, 2));
      const auto gen = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      queue.push(t, kind, gen);
      model.push(t, kind, gen);
    } else if (roll < 95) {
      // Note: popped times need not be globally nondecreasing here — a
      // later push may legally carry an earlier time (the engine's wake-up
      // races do exactly this). The model check below asserts the real
      // contract: every pop surfaces the minimum of the *current* content.
      const Event popped = queue.top();
      queue.pop();
      model.consume(popped, label + " op " + std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
      // The engine's clock only moves to popped instants; advancing the
      // window base the same way keeps regime-3 pushes mostly in-order
      // with occasional slightly-in-the-past entries (wake-up races).
      cursor = std::max(cursor, popped.time - 0.5);
    } else if (roll < 98) {
      // Burst: a clump of near-identical times lands in one bucket.
      const Time t = draw_time();
      const int burst = static_cast<int>(rng.uniform_int(2, 30));
      for (int b = 0; b < burst; ++b) {
        const Time jitter = rng.uniform(0.0, 1e-6);
        queue.push(t + jitter, EventKind::kCompletion, 0);
        model.push(t + jitter, EventKind::kCompletion, 0);
      }
    } else {
      queue.clear();
      model = Model{};
      cursor = 0.0;
    }
    ASSERT_EQ(queue.size(), model.size()) << label << " op " << op;
  }

  // Drain: no further pushes, so here pops MUST be nondecreasing, and
  // every remaining entry must surface exactly once.
  Time last_popped = -1.0;
  while (!queue.empty()) {
    const Event popped = queue.top();
    queue.pop();
    ASSERT_GE(popped.time, last_popped) << label << " drain";
    last_popped = popped.time;
    model.consume(popped, label + " drain");
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_EQ(model.size(), 0u) << label << ": entries lost";
}

class EventQueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueFuzz, CalendarHonorsContract) {
  for (int c = 0; c < 8; ++c) {
    const std::uint64_t seed =
        20260808ULL * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(c);
    fuzz_impl(EventQueueImpl::kCalendar, seed, 1200,
              "calendar seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(EventQueueFuzz, HeapHonorsContract) {
  for (int c = 0; c < 8; ++c) {
    const std::uint64_t seed =
        20260808ULL * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(c);
    fuzz_impl(EventQueueImpl::kHeap, seed, 1200,
              "heap seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EventQueueFuzz, ::testing::Range(0, 6));

// ----- differential: calendar vs heap, same operation script ---------------
//
// The two implementations fed an identical script must pop the identical
// *time sequence* — ties may reorder payloads, so only times are compared
// literally; payload conservation is covered by the model in fuzz_impl.

TEST(EventQueueDiff, CalendarAndHeapPopIdenticalTimeSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    EventQueue calendar(EventQueueImpl::kCalendar);
    EventQueue heap(EventQueueImpl::kHeap);
    util::Rng rng(seed * 7919);
    Time cursor = 0.0;
    for (int op = 0; op < 800; ++op) {
      if (rng.uniform(0.0, 1.0) < 0.6 || calendar.empty()) {
        Time t;
        switch (op % 3) {
          case 0: t = rng.uniform(0.0, 50.0); break;
          case 1: t = 13.0; break;  // tie pile-up
          default: t = cursor + rng.uniform(0.0, 1.5); break;
        }
        const auto kind = static_cast<EventKind>(rng.uniform_int(0, 2));
        const auto gen = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
        calendar.push(t, kind, gen);
        heap.push(t, kind, gen);
      } else {
        ASSERT_EQ(calendar.top().time, heap.top().time)
            << "seed " << seed << " op " << op;
        cursor = std::max(cursor, calendar.top().time);
        calendar.pop();
        heap.pop();
      }
      ASSERT_EQ(calendar.size(), heap.size()) << "seed " << seed;
    }
    while (!calendar.empty()) {
      ASSERT_FALSE(heap.empty()) << "seed " << seed;
      ASSERT_EQ(calendar.top().time, heap.top().time) << "seed " << seed;
      calendar.pop();
      heap.pop();
    }
    ASSERT_TRUE(heap.empty()) << "seed " << seed;
  }
}

// ----- directed edge cases -------------------------------------------------

TEST(EventQueueEdge, RejectsNegativeAndNonFiniteTimes) {
  for (const EventQueueImpl impl :
       {EventQueueImpl::kCalendar, EventQueueImpl::kHeap}) {
    EventQueue queue(impl);
    EXPECT_THROW(queue.push(-1.0, EventKind::kCompletion),
                 std::invalid_argument);
    EXPECT_THROW(queue.push(std::numeric_limits<double>::quiet_NaN(),
                            EventKind::kCompletion),
                 std::invalid_argument);
    EXPECT_THROW(queue.push(std::numeric_limits<double>::infinity(),
                            EventKind::kCompletion),
                 std::invalid_argument);
    EXPECT_TRUE(queue.empty());  // failed pushes must not leak entries
  }
}

TEST(EventQueueEdge, TenThousandEntriesAtOneInstant) {
  // One bucket absorbs everything: the calendar's documented degenerate
  // case must stay correct (the heap fallback exists for its *speed*).
  EventQueue queue(EventQueueImpl::kCalendar);
  for (int i = 0; i < 10000; ++i)
    queue.push(7.25, EventKind::kCompletion, static_cast<std::uint32_t>(i));
  EXPECT_EQ(queue.size(), 10000u);
  std::vector<bool> seen(10000, false);
  while (!queue.empty()) {
    const Event& e = queue.top();
    EXPECT_EQ(e.time, 7.25);
    ASSERT_LT(e.gen, 10000u);
    ASSERT_FALSE(seen[e.gen]) << "duplicate gen " << e.gen;
    seen[e.gen] = true;
    queue.pop();
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(EventQueueEdge, GrowShrinkCyclesPreserveEntries) {
  EventQueue queue(EventQueueImpl::kCalendar);
  util::Rng rng(5);
  // Repeatedly inflate past the grow threshold and drain below the shrink
  // threshold; every cycle must conserve the surviving entries.
  std::multimap<Time, std::uint32_t> model;
  std::uint32_t next_gen = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 3000; ++i) {
      const Time t = rng.uniform(0.0, 1000.0);
      queue.push(t, EventKind::kSchedulerWake, next_gen);
      model.emplace(t, next_gen++);
    }
    for (int i = 0; i < 2900; ++i) {
      const Event e = queue.top();
      queue.pop();
      auto [lo, hi] = model.equal_range(e.time);
      bool found = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.gen) {
          model.erase(it);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "cycle " << cycle << " entry gen " << e.gen;
    }
    ASSERT_EQ(queue.size(), model.size()) << "cycle " << cycle;
  }
}

TEST(EventQueueEdge, DefaultIsTheHeap) {
  // OnePortEngine default-constructs its completion queue.
  EXPECT_EQ(EventQueue().impl(), EventQueueImpl::kHeap);
}

TEST(EventQueueEdge, ConfigureSwitchesImplementationAndDropsEntries) {
  EventQueue queue(EventQueueImpl::kCalendar);
  queue.push(3.0, EventKind::kCompletion);
  queue.push(1.0, EventKind::kCompletion);
  queue.configure(EventQueueImpl::kHeap);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.impl(), EventQueueImpl::kHeap);
  queue.push(2.0, EventKind::kCompletion);
  EXPECT_EQ(queue.top().time, 2.0);
  queue.configure(EventQueueImpl::kCalendar);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.impl(), EventQueueImpl::kCalendar);
}

}  // namespace
}  // namespace msol::core
