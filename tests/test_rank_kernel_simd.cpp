// The explicitly vectorized ranking kernel must be bit-identical to the
// branch-free scalar loop: completion_batch_simd promises memcmp equality
// with completion_batch on every input (same multiplies, adds, and max
// selections per lane, no FMA contraction), and delegates to the scalar
// form whenever the view carries availability state. The gather form
// (completion_gather_simd, hardware vgatherdpd over candidate subsets) is
// pinned the same way — including on online-masked views, which it keeps
// vectorized by blending offline lanes to +infinity. The argmin form
// (rank_best_completion, the LS hot path) must return the sequential
// scan's index at every pinned width, availability views included.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rank_kernel.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

struct DenseState {
  std::vector<Time> comm, comp, ready;
  std::vector<std::uint8_t> online;
  std::vector<double> speed;

  explicit DenseState(int m, util::Rng& rng) {
    comm.reserve(m);
    comp.reserve(m);
    ready.reserve(m);
    online.reserve(m);
    speed.reserve(m);
    for (int j = 0; j < m; ++j) {
      comm.push_back(rng.uniform(0.01, 10.0));
      comp.push_back(rng.uniform(0.1, 100.0));
      ready.push_back(rng.uniform(0.0, 500.0));
      online.push_back(rng.uniform(0.0, 1.0) < 0.2 ? 0 : 1);
      speed.push_back(rng.uniform(0.25, 2.0));
    }
  }

  SlaveStateView view(bool with_online, bool with_speed) const {
    SlaveStateView v;
    v.comm = comm.data();
    v.comp = comp.data();
    v.ready = ready.data();
    v.online = with_online ? online.data() : nullptr;
    v.speed = with_speed ? speed.data() : nullptr;
    v.m = static_cast<int>(comm.size());
    return v;
  }
};

/// memcmp over the raw doubles: equality of every bit, not just of values
/// (a -0.0 vs +0.0 or differently-rounded lane would slip past ==).
void expect_bitwise_equal(const std::vector<Time>& a,
                          const std::vector<Time>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // memcmp's pointers must be non-null even for 0
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Time)), 0);
}

TEST(RankKernelSimd, BitIdenticalToScalarOnStaticViews) {
  util::Rng rng(2006);
  // Sizes straddle the 4-, 8-, and 16-lane groups: 0 exercises the empty
  // loop, small sizes the scalar tails, the larger sizes every vector body
  // (including the AVX-512 two-chain unroll at >= 16) plus every tail
  // length modulo 4, 8, and 16.
  for (int m : {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 23, 24, 31, 32,
                33, 64, 127, 256, 1001}) {
    const DenseState state(m, rng);
    const SlaveStateView v = state.view(false, false);
    for (int rep = 0; rep < 4; ++rep) {
      const Time now = rng.uniform(0.0, 1000.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      std::vector<Time> scalar(m, -1.0);
      std::vector<Time> simd(m, -2.0);
      completion_batch(v, now, send_start, cf, pf, scalar.data());
      completion_batch_simd(v, now, send_start, cf, pf, simd.data());
      expect_bitwise_equal(scalar, simd);
    }
  }
}

TEST(RankKernelSimd, EveryPinnedWidthIsBitIdenticalToScalar) {
  // completion_batch_width forces one kernel body (falling back to scalar
  // when the build or host lacks the ISA) — every width must agree with the
  // scalar loop bit-for-bit, which transitively pins AVX-512 == AVX2.
  util::Rng rng(512);
  for (int m : {0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 48, 100, 257}) {
    const DenseState state(m, rng);
    const SlaveStateView v = state.view(false, false);
    for (int rep = 0; rep < 4; ++rep) {
      const Time now = rng.uniform(0.0, 1000.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      std::vector<Time> scalar(m, -1.0);
      completion_batch(v, now, send_start, cf, pf, scalar.data());
      for (const RankKernelWidth width :
           {RankKernelWidth::kAuto, RankKernelWidth::kScalar,
            RankKernelWidth::kAvx2, RankKernelWidth::kAvx512}) {
        std::vector<Time> out(m, -2.0);
        completion_batch_width(width, v, now, send_start, cf, pf, out.data());
        expect_bitwise_equal(scalar, out);
      }
    }
  }
}

TEST(RankKernelSimd, PinnedWidthsDelegateOnAvailabilityViews) {
  util::Rng rng(513);
  const DenseState state(41, rng);
  for (const bool with_online : {false, true}) {
    for (const bool with_speed : {false, true}) {
      if (!with_online && !with_speed) continue;
      const SlaveStateView v = state.view(with_online, with_speed);
      std::vector<Time> scalar(41);
      completion_batch(v, 5.0, 6.0, 1.5, 0.75, scalar.data());
      for (const RankKernelWidth width :
           {RankKernelWidth::kAuto, RankKernelWidth::kAvx2,
            RankKernelWidth::kAvx512}) {
        std::vector<Time> out(41);
        completion_batch_width(width, v, 5.0, 6.0, 1.5, 0.75, out.data());
        expect_bitwise_equal(scalar, out);
      }
    }
  }
}

TEST(RankKernelSimd, DelegatesOnAvailabilityViews) {
  util::Rng rng(7);
  const DenseState state(37, rng);
  for (const bool with_online : {false, true}) {
    for (const bool with_speed : {false, true}) {
      if (!with_online && !with_speed) continue;
      const SlaveStateView v = state.view(with_online, with_speed);
      std::vector<Time> scalar(37), simd(37);
      completion_batch(v, 5.0, 6.0, 1.5, 0.75, scalar.data());
      completion_batch_simd(v, 5.0, 6.0, 1.5, 0.75, simd.data());
      expect_bitwise_equal(scalar, simd);
    }
  }
}

// ----------------------------------------------------------- gather form ----

/// Candidate-id subsets over an m-slave view: the shapes the meta layer's
/// incremental projections actually emit (empty, a singleton probe, strided
/// sub-fleets, the full sweep) plus random draws with repeats.
std::vector<std::vector<SlaveId>> gather_subsets(int m, util::Rng& rng) {
  std::vector<std::vector<SlaveId>> subsets;
  subsets.emplace_back();  // empty
  if (m == 0) return subsets;
  subsets.push_back({static_cast<SlaveId>(m / 2)});  // singleton
  for (const int stride : {2, 3}) {                  // strided
    std::vector<SlaveId> ids;
    for (int j = 0; j < m; j += stride) ids.push_back(j);
    subsets.push_back(std::move(ids));
  }
  std::vector<SlaveId> full(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) full[static_cast<std::size_t>(j)] = j;
  subsets.push_back(std::move(full));
  std::vector<SlaveId> random;  // repeats allowed: gathers must not care
  for (int i = 0; i < m + 3; ++i) {
    random.push_back(
        static_cast<SlaveId>(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)));
  }
  subsets.push_back(std::move(random));
  return subsets;
}

TEST(RankKernelSimd, GatherIsBitIdenticalToScalarAcrossSubsetShapes) {
  util::Rng rng(4242);
  // Fleet sizes straddle the 4/8/16-lane groups so the subset lengths above
  // cover every vector-body count and tail length modulo 4 and 8.
  for (int m : {0, 1, 3, 4, 5, 8, 9, 15, 16, 17, 33, 64, 257}) {
    const DenseState state(m, rng);
    for (const std::vector<SlaveId>& ids : gather_subsets(m, rng)) {
      const int n = static_cast<int>(ids.size());
      for (int rep = 0; rep < 3; ++rep) {
        const Time now = rng.uniform(0.0, 1000.0);
        const Time send_start = now + rng.uniform(0.0, 10.0);
        const double cf = rng.uniform(0.5, 2.0);
        const double pf = rng.uniform(0.5, 2.0);
        // Online views STAY vectorized in the gather form (offline lanes
        // blend to +infinity); only speed views delegate. Pin all four.
        for (const bool with_online : {false, true}) {
          for (const bool with_speed : {false, true}) {
            const SlaveStateView v = state.view(with_online, with_speed);
            std::vector<Time> scalar(static_cast<std::size_t>(n), -1.0);
            std::vector<Time> simd(static_cast<std::size_t>(n), -2.0);
            completion_gather(v, now, send_start, cf, pf, ids.data(), n,
                              scalar.data());
            completion_gather_simd(v, now, send_start, cf, pf, ids.data(), n,
                                   simd.data());
            expect_bitwise_equal(scalar, simd);
          }
        }
      }
    }
  }
}

TEST(RankKernelSimd, EveryPinnedGatherWidthIsBitIdenticalToScalar) {
  // Transitively pins AVX-512 gathers == AVX2 gathers == the scalar loop,
  // on both null-online and masked-online views.
  util::Rng rng(4243);
  for (int m : {1, 4, 7, 8, 16, 17, 31, 100}) {
    const DenseState state(m, rng);
    for (const std::vector<SlaveId>& ids : gather_subsets(m, rng)) {
      const int n = static_cast<int>(ids.size());
      const Time now = rng.uniform(0.0, 1000.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      for (const bool with_online : {false, true}) {
        const SlaveStateView v = state.view(with_online, false);
        std::vector<Time> scalar(static_cast<std::size_t>(n), -1.0);
        completion_gather(v, now, send_start, 1.5, 0.75, ids.data(), n,
                          scalar.data());
        for (const RankKernelWidth width :
             {RankKernelWidth::kAuto, RankKernelWidth::kScalar,
              RankKernelWidth::kAvx2, RankKernelWidth::kAvx512}) {
          std::vector<Time> out(static_cast<std::size_t>(n), -2.0);
          completion_gather_width(width, v, now, send_start, 1.5, 0.75,
                                  ids.data(), n, out.data());
          expect_bitwise_equal(scalar, out);
        }
      }
    }
  }
}

TEST(RankKernelSimd, GatherDelegatesOnSpeedViews) {
  // A speed array means per-lane divides — the one view the gather kernels
  // hand back to the scalar loop, at every pinned width.
  util::Rng rng(4244);
  const int m = 29;
  const DenseState state(m, rng);
  std::vector<SlaveId> ids;
  for (int j = 0; j < m; ++j) ids.push_back(j);
  for (const bool with_online : {false, true}) {
    const SlaveStateView v = state.view(with_online, true);
    std::vector<Time> scalar(static_cast<std::size_t>(m));
    completion_gather(v, 5.0, 6.0, 1.5, 0.75, ids.data(), m, scalar.data());
    for (const RankKernelWidth width :
         {RankKernelWidth::kAuto, RankKernelWidth::kAvx2,
          RankKernelWidth::kAvx512}) {
      std::vector<Time> out(static_cast<std::size_t>(m));
      completion_gather_width(width, v, 5.0, 6.0, 1.5, 0.75, ids.data(), m,
                              out.data());
      expect_bitwise_equal(scalar, out);
    }
  }
}

// ------------------------------------------------------------ argmin form ----

/// The sequential list-scheduling scan rank_best_completion replaced with
/// its block-skip bodies, copied verbatim: the oracle every width must
/// match index for index.
SlaveId sequential_argmin(const SlaveStateView& s, Time now, Time send_start,
                          double comm_factor, double comp_factor) {
  SlaveId best = -1;
  Time best_completion = 0.0;
  for (int j = 0; j < s.m; ++j) {
    if (s.online != nullptr && s.online[j] == 0) continue;
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time ready = now < s.ready[j] ? s.ready[j] : now;
    const Time comp_start = send_end < ready ? ready : send_end;
    Time compute = s.comp[j] * comp_factor;
    if (s.speed != nullptr) compute /= s.speed[j];
    const Time completion = comp_start + compute;
    if (best < 0 || completion < best_completion - kTimeEps) {
      best = j;
      best_completion = completion;
    }
  }
  return best;
}

constexpr RankKernelWidth kEveryWidth[] = {
    RankKernelWidth::kAuto, RankKernelWidth::kScalar, RankKernelWidth::kAvx2,
    RankKernelWidth::kAvx512};

/// Every pinned argmin body, and the dispatched entry point, against the
/// sequential scan on one view.
void expect_argmin_matches(const SlaveStateView& v, Time now, Time send_start,
                           double cf, double pf) {
  const SlaveId want = sequential_argmin(v, now, send_start, cf, pf);
  EXPECT_EQ(rank_best_completion(v, now, send_start, cf, pf), want);
  for (const RankKernelWidth width : kEveryWidth) {
    EXPECT_EQ(rank_best_completion_width(width, v, now, send_start, cf, pf),
              want)
        << "width " << static_cast<int>(width) << " m " << v.m;
  }
}

/// A state whose completion on slave j is exactly completions[j] under
/// now = send_start = 0 and unit factors (zero comm and comp, unit speed,
/// all online): the argmin tests below write the completions they need
/// directly.
DenseState completion_state(const std::vector<Time>& completions) {
  util::Rng rng(0);
  DenseState state(static_cast<int>(completions.size()), rng);
  state.comm.assign(completions.size(), 0.0);
  state.comp.assign(completions.size(), 0.0);
  state.ready = completions;
  state.online.assign(completions.size(), 1);
  state.speed.assign(completions.size(), 1.0);
  return state;
}

TEST(RankKernelSimd, ArgminMatchesSequentialScanAtEveryWidth) {
  util::Rng rng(1707);
  // m = 0..67 covers the empty view, every tail length modulo 4 and 8, and
  // several whole 4- and 8-lane blocks.
  for (int m = 0; m <= 67; ++m) {
    const DenseState state(m, rng);
    // Tie-heavy twin: a few discrete values, so equal completions and
    // near-equal chains are common rather than measure-zero.
    DenseState ties = state;
    for (int j = 0; j < m; ++j) {
      ties.comm[j] = 1.0 + static_cast<double>(rng.uniform_int(0, 1));
      ties.comp[j] = 3.0 + static_cast<double>(rng.uniform_int(0, 1));
      ties.ready[j] = 5.0 * static_cast<double>(rng.uniform_int(0, 1));
      ties.speed[j] = rng.uniform_int(0, 1) == 0 ? 1.0 : 2.0;
    }
    for (int rep = 0; rep < 3; ++rep) {
      const Time now = rng.uniform(0.0, 500.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      for (const bool with_online : {false, true}) {
        for (const bool with_speed : {false, true}) {
          expect_argmin_matches(state.view(with_online, with_speed), now,
                                send_start, cf, pf);
          expect_argmin_matches(ties.view(with_online, with_speed), 0.0, 0.0,
                                1.0, 1.0);
        }
      }
    }
  }
}

TEST(RankKernelSimd, ArgminFollowsTheSequentialEpsChain) {
  // {1, 1 - 0.9e-9, 1 - 1.8e-9}: the second is not better than the first
  // by more than kTimeEps, the third is. The sequential scan therefore
  // picks the third, where "first index within eps of the global min"
  // would pick the second. Slide the chain (contiguous and spread across
  // blocks) over every position of a 35-slave view.
  const Time chain[] = {1.0, 1.0 - 0.9e-9, 1.0 - 1.8e-9};
  const int m = 35;
  for (const int gap : {1, 3, 5, 9}) {
    for (int p = 0; p + 2 * gap < m; ++p) {
      std::vector<Time> completions(static_cast<std::size_t>(m), 2.0);
      for (int k = 0; k < 3; ++k) {
        completions[static_cast<std::size_t>(p + k * gap)] = chain[k];
      }
      const DenseState state = completion_state(completions);
      const SlaveStateView v = state.view(false, false);
      ASSERT_EQ(sequential_argmin(v, 0.0, 0.0, 1.0, 1.0), p + 2 * gap);
      for (const bool with_online : {false, true}) {
        for (const bool with_speed : {false, true}) {
          expect_argmin_matches(state.view(with_online, with_speed), 0.0, 0.0,
                                1.0, 1.0);
        }
      }
    }
  }
}

TEST(RankKernelSimd, ArgminFindsAHitInEveryLaneAndTheTail) {
  // One winner over a flat field, at every position: the first and last
  // lane of each block and every scalar tail slot.
  for (const int m : {8, 16, 17, 23, 35}) {
    for (int p = 0; p < m; ++p) {
      std::vector<Time> completions(static_cast<std::size_t>(m), 2.0);
      completions[static_cast<std::size_t>(p)] = 1.0;
      const DenseState state = completion_state(completions);
      ASSERT_EQ(sequential_argmin(state.view(false, false), 0.0, 0.0, 1.0,
                                  1.0),
                p);
      for (const bool with_online : {false, true}) {
        expect_argmin_matches(state.view(with_online, true), 0.0, 0.0, 1.0,
                              1.0);
        expect_argmin_matches(state.view(with_online, false), 0.0, 0.0, 1.0,
                              1.0);
      }
    }
  }
}

TEST(RankKernelSimd, ArgminSkipsOfflineLanes) {
  util::Rng rng(1708);
  for (const int m : {1, 4, 8, 9, 16, 20, 33}) {
    DenseState state(m, rng);
    // Offline slaves look like the best choice: idle and fast.
    for (int j = 0; j < m; ++j) state.ready[j] = j % 2 == 0 ? 0.0 : 400.0;
    // The first k slaves offline, k = 0..m (k = m is the all-offline view
    // whose answer is -1 at every width), alone and with every idle slave
    // past them offline too, so offline lanes sit inside the vector blocks.
    for (int k = 0; k <= m; ++k) {
      for (const bool interleaved : {false, true}) {
        for (int j = 0; j < m; ++j) {
          state.online[j] = j < k || (interleaved && j % 2 == 0) ? 0 : 1;
        }
        for (const bool with_speed : {false, true}) {
          const SlaveStateView v = state.view(true, with_speed);
          if (k == m) {
            ASSERT_EQ(sequential_argmin(v, 1.0, 2.0, 1.0, 1.0), -1);
          }
          expect_argmin_matches(v, 1.0, 2.0, 1.0, 1.0);
        }
      }
    }
  }
}

TEST(RankKernelSimd, ArgminHandlesInfiniteReady) {
  const Time inf = std::numeric_limits<Time>::infinity();
  util::Rng rng(1709);
  for (const int m : {3, 8, 13, 24}) {
    DenseState state(m, rng);
    // Every slave at +infinity: the first online one wins, nothing beats it.
    for (int j = 0; j < m; ++j) state.ready[j] = inf;
    for (const bool with_online : {false, true}) {
      for (const bool with_speed : {false, true}) {
        expect_argmin_matches(state.view(with_online, with_speed), 1.0, 2.0,
                              1.0, 1.0);
      }
    }
    // A leading block of +infinity, then finite slaves.
    for (int j = 0; j < m; ++j) {
      state.ready[j] = j < m / 2 ? inf : rng.uniform(0.0, 100.0);
    }
    for (const bool with_online : {false, true}) {
      for (const bool with_speed : {false, true}) {
        expect_argmin_matches(state.view(with_online, with_speed), 1.0, 2.0,
                              1.0, 1.0);
      }
    }
  }
}

TEST(RankKernelSimd, AvailabilityFlagIsStable) {
  // Whatever this host reports, it must report consistently — the bench
  // prints it per run and the kernel dispatches on it per call.
  const bool first = rank_kernel_simd_available();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rank_kernel_simd_available(), first);
  const bool avx512 = rank_kernel_avx512_available();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rank_kernel_avx512_available(), avx512);
  }
  // No known x86-64 reports AVX-512F without AVX2; the dispatch order
  // (avx512 -> avx2 -> scalar) leans on the implication.
  if (avx512) {
    EXPECT_TRUE(first);
  }
}

}  // namespace
}  // namespace msol::core
