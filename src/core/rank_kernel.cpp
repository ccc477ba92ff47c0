#include "core/rank_kernel.hpp"

#include <cstring>
#include <limits>

// (MSOL_RANK_KERNEL_SIMD is defined further down, next to the rationale;
// the gather kernels additionally need the intrinsic headers because
// vgatherdpd has no GNU-vector-extension spelling.)
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace msol::core {

namespace {

/// std::max(a, b) spelled so the dependency chain is explicit; identical
/// result (ties pick `a`, like std::max picks its first argument).
inline Time tmax(Time a, Time b) { return a < b ? b : a; }

}  // namespace

void completion_batch(const SlaveStateView& s, Time now, Time send_start,
                      double comm_factor, double comp_factor, Time* out) {
  const int m = s.m;
  if (s.online == nullptr && s.speed == nullptr) {
    // Static platform: no branches in the loop body, dense loads only —
    // this is the form the compiler can vectorize.
    for (int j = 0; j < m; ++j) {
      const Time send_end = send_start + s.comm[j] * comm_factor;
      const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
      out[j] = comp_start + s.comp[j] * comp_factor;
    }
    return;
  }
  const Time inf = std::numeric_limits<Time>::infinity();
  for (int j = 0; j < m; ++j) {
    if (s.online != nullptr && s.online[j] == 0) {
      out[j] = inf;
      continue;
    }
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    Time compute = s.comp[j] * comp_factor;
    if (s.speed != nullptr) compute /= s.speed[j];
    out[j] = comp_start + compute;
  }
}

void completion_gather(const SlaveStateView& s, Time now, Time send_start,
                       double comm_factor, double comp_factor,
                       const SlaveId* ids, int n, Time* out) {
  const Time inf = std::numeric_limits<Time>::infinity();
  for (int i = 0; i < n; ++i) {
    const SlaveId j = ids[i];
    if (s.online != nullptr && s.online[j] == 0) {
      out[i] = inf;
      continue;
    }
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    Time compute = s.comp[j] * comp_factor;
    if (s.speed != nullptr) compute /= s.speed[j];
    out[i] = comp_start + compute;
  }
}

// Explicit vectorization needs the GNU vector extensions AND a wider-than-
// baseline target: the portable build targets x86-64 SSE2, where 4-lane
// ops get split into a shuffle-heavy mess slower than the compiler's own
// autovectorized scalar loop. Compiling just the kernel body for AVX2 via
// the function `target` attribute (with a __builtin_cpu_supports runtime
// gate) keeps the global build flags and every other translation unit at
// baseline. FMA is deliberately NOT requested: without fused-multiply-add
// instructions the compiler cannot contract mul+add, so every lane performs
// the scalar probe's exact operation sequence.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define MSOL_RANK_KERNEL_SIMD 1
#endif

bool rank_kernel_simd_available() {
#ifdef MSOL_RANK_KERNEL_SIMD
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool rank_kernel_avx512_available() {
#ifdef MSOL_RANK_KERNEL_SIMD
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

#ifdef MSOL_RANK_KERNEL_SIMD
namespace {

typedef double Vd4 __attribute__((vector_size(32)));

/// tmax per lane: the GNU vector ternary selects whole IEEE words on the
/// comparison mask (lanes where a < b take b, others a), so the result is
/// bit-for-bit the scalar ternary's; under target("avx2") it lowers to a
/// single vmaxpd. (An explicit and/andnot/or bit-select computes the same
/// thing but defeats that pattern match — measured 3x slower.)
__attribute__((target("avx2"))) inline Vd4 vmax(Vd4 a, Vd4 b) {
  return a < b ? b : a;
}

__attribute__((target("avx2"))) void completion_batch_avx2(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, Time* out) {
  const int m = s.m;
  const Vd4 vnow = {now, now, now, now};
  const Vd4 vsend = {send_start, send_start, send_start, send_start};
  const Vd4 vcf = {comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd4 vpf = {comp_factor, comp_factor, comp_factor, comp_factor};
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    Vd4 comm;
    Vd4 comp;
    Vd4 ready;
    std::memcpy(&comm, s.comm + j, sizeof comm);
    std::memcpy(&comp, s.comp + j, sizeof comp);
    std::memcpy(&ready, s.ready + j, sizeof ready);
    const Vd4 send_end = vsend + comm * vcf;
    const Vd4 comp_start = vmax(send_end, vmax(vnow, ready));
    const Vd4 completion = comp_start + comp * vpf;
    std::memcpy(out + j, &completion, sizeof completion);
  }
  for (; j < m; ++j) {  // scalar tail, same operation sequence
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    out[j] = comp_start + s.comp[j] * comp_factor;
  }
}

typedef double Vd8 __attribute__((vector_size(64)));

/// 8-lane tmax; lowers to a single vmaxpd zmm under target("avx512f").
/// Only "avx512f" is requested — Foundation carries 512-bit vmaxpd/vmulpd/
/// vaddpd, and it also carries FMA forms, which is why this TU is compiled
/// with -ffp-contract=off (see CMakeLists): a contracted mul+add would
/// round once instead of twice and break bit-identity with the scalar probe.
__attribute__((target("avx512f"))) inline Vd8 vmax8(Vd8 a, Vd8 b) {
  return a < b ? b : a;
}

__attribute__((target("avx512f"))) void completion_batch_avx512(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, Time* out) {
  const int m = s.m;
  const Vd8 vnow = {now, now, now, now, now, now, now, now};
  const Vd8 vsend = {send_start, send_start, send_start, send_start,
                     send_start, send_start, send_start, send_start};
  const Vd8 vcf = {comm_factor, comm_factor, comm_factor, comm_factor,
                   comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd8 vpf = {comp_factor, comp_factor, comp_factor, comp_factor,
                   comp_factor, comp_factor, comp_factor, comp_factor};
  int j = 0;
  // Two independent 8-lane chains per iteration: the max chains serialize a
  // single accumulator at vmaxpd latency, so a second in-flight group hides
  // it. Lanes never interact, so the unroll cannot change any lane's value.
  for (; j + 16 <= m; j += 16) {
    Vd8 comm0, comp0, ready0, comm1, comp1, ready1;
    std::memcpy(&comm0, s.comm + j, sizeof comm0);
    std::memcpy(&comp0, s.comp + j, sizeof comp0);
    std::memcpy(&ready0, s.ready + j, sizeof ready0);
    std::memcpy(&comm1, s.comm + j + 8, sizeof comm1);
    std::memcpy(&comp1, s.comp + j + 8, sizeof comp1);
    std::memcpy(&ready1, s.ready + j + 8, sizeof ready1);
    const Vd8 send_end0 = vsend + comm0 * vcf;
    const Vd8 send_end1 = vsend + comm1 * vcf;
    const Vd8 comp_start0 = vmax8(send_end0, vmax8(vnow, ready0));
    const Vd8 comp_start1 = vmax8(send_end1, vmax8(vnow, ready1));
    const Vd8 completion0 = comp_start0 + comp0 * vpf;
    const Vd8 completion1 = comp_start1 + comp1 * vpf;
    std::memcpy(out + j, &completion0, sizeof completion0);
    std::memcpy(out + j + 8, &completion1, sizeof completion1);
  }
  for (; j + 8 <= m; j += 8) {
    Vd8 comm, comp, ready;
    std::memcpy(&comm, s.comm + j, sizeof comm);
    std::memcpy(&comp, s.comp + j, sizeof comp);
    std::memcpy(&ready, s.ready + j, sizeof ready);
    const Vd8 send_end = vsend + comm * vcf;
    const Vd8 comp_start = vmax8(send_end, vmax8(vnow, ready));
    const Vd8 completion = comp_start + comp * vpf;
    std::memcpy(out + j, &completion, sizeof completion);
  }
  for (; j < m; ++j) {  // scalar tail, same operation sequence
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    out[j] = comp_start + s.comp[j] * comp_factor;
  }
}

/// Gather-form AVX2 kernel: 4 candidate ids per group. Loads go through
/// vgatherdpd (SlaveId is 32-bit int, so a 128-bit lane of 4 ids indexes a
/// 256-bit gather); the arithmetic then moves into the same GNU-vector
/// types and vmax as the dense kernel, so every lane performs exactly the
/// scalar gather's operation sequence. Offline candidates are handled
/// branch-free: the gathered lanes compute garbage-but-finite values that a
/// blendv against the widened online bytes replaces with +infinity —
/// bit-identical to the scalar loop's early-out, and the reason this kernel
/// does NOT delegate on `online != nullptr` like the dense ones do.
__attribute__((target("avx2"))) void completion_gather_avx2(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, const SlaveId* ids, int n, Time* out) {
  const Time inf = std::numeric_limits<Time>::infinity();
  const Vd4 vnow = {now, now, now, now};
  const Vd4 vsend = {send_start, send_start, send_start, send_start};
  const Vd4 vcf = {comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd4 vpf = {comp_factor, comp_factor, comp_factor, comp_factor};
  const __m256d vinf = _mm256_set1_pd(inf);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx;
    std::memcpy(&idx, ids + i, sizeof idx);
    Vd4 comm, comp, ready;
    const __m256d gcomm = _mm256_i32gather_pd(s.comm, idx, 8);
    const __m256d gcomp = _mm256_i32gather_pd(s.comp, idx, 8);
    const __m256d gready = _mm256_i32gather_pd(s.ready, idx, 8);
    std::memcpy(&comm, &gcomm, sizeof comm);
    std::memcpy(&comp, &gcomp, sizeof comp);
    std::memcpy(&ready, &gready, sizeof ready);
    const Vd4 send_end = vsend + comm * vcf;
    const Vd4 comp_start = vmax(send_end, vmax(vnow, ready));
    const Vd4 completion = comp_start + comp * vpf;
    if (s.online == nullptr) {
      std::memcpy(out + i, &completion, sizeof completion);
      continue;
    }
    // Widen the 4 online bytes to 64-bit lanes; a zero lane (offline)
    // selects +infinity in the blend.
    const std::uint32_t packed =
        static_cast<std::uint32_t>(s.online[ids[i]]) |
        static_cast<std::uint32_t>(s.online[ids[i + 1]]) << 8 |
        static_cast<std::uint32_t>(s.online[ids[i + 2]]) << 16 |
        static_cast<std::uint32_t>(s.online[ids[i + 3]]) << 24;
    const __m256i lanes =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
    const __m256d offline = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(lanes, _mm256_setzero_si256()));
    __m256d result;
    std::memcpy(&result, &completion, sizeof result);
    result = _mm256_blendv_pd(result, vinf, offline);
    std::memcpy(out + i, &result, sizeof result);
  }
  for (; i < n; ++i) {  // scalar tail, same operation sequence
    const SlaveId j = ids[i];
    if (s.online != nullptr && s.online[j] == 0) {
      out[i] = inf;
      continue;
    }
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    out[i] = comp_start + s.comp[j] * comp_factor;
  }
}

/// Gather-form AVX-512 kernel: 8 ids per group through _mm512_i32gather_pd,
/// offline lanes mask-blended to +infinity via a scalar-built __mmask8
/// (8 byte loads beat a masked 512-bit byte gather at this width). Same
/// bit-identity contract as the AVX2 form; -ffp-contract=off on this TU
/// keeps the avx512f target from contracting the mul+add chains.
__attribute__((target("avx512f"))) void completion_gather_avx512(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, const SlaveId* ids, int n, Time* out) {
  const Time inf = std::numeric_limits<Time>::infinity();
  const Vd8 vnow = {now, now, now, now, now, now, now, now};
  const Vd8 vsend = {send_start, send_start, send_start, send_start,
                     send_start, send_start, send_start, send_start};
  const Vd8 vcf = {comm_factor, comm_factor, comm_factor, comm_factor,
                   comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd8 vpf = {comp_factor, comp_factor, comp_factor, comp_factor,
                   comp_factor, comp_factor, comp_factor, comp_factor};
  const __m512d vinf = _mm512_set1_pd(inf);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i idx;
    std::memcpy(&idx, ids + i, sizeof idx);
    Vd8 comm, comp, ready;
    const __m512d gcomm = _mm512_i32gather_pd(idx, s.comm, 8);
    const __m512d gcomp = _mm512_i32gather_pd(idx, s.comp, 8);
    const __m512d gready = _mm512_i32gather_pd(idx, s.ready, 8);
    std::memcpy(&comm, &gcomm, sizeof comm);
    std::memcpy(&comp, &gcomp, sizeof comp);
    std::memcpy(&ready, &gready, sizeof ready);
    const Vd8 send_end = vsend + comm * vcf;
    const Vd8 comp_start = vmax8(send_end, vmax8(vnow, ready));
    const Vd8 completion = comp_start + comp * vpf;
    __m512d result;
    std::memcpy(&result, &completion, sizeof result);
    if (s.online != nullptr) {
      __mmask8 offline = 0;
      for (int l = 0; l < 8; ++l) {
        if (s.online[ids[i + l]] == 0) {
          offline = static_cast<__mmask8>(offline | (1u << l));
        }
      }
      result = _mm512_mask_blend_pd(offline, result, vinf);
    }
    std::memcpy(out + i, &result, sizeof result);
  }
  for (; i < n; ++i) {  // scalar tail, same operation sequence
    const SlaveId j = ids[i];
    if (s.online != nullptr && s.online[j] == 0) {
      out[i] = inf;
      continue;
    }
    const Time send_end = send_start + s.comm[j] * comm_factor;
    const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
    out[i] = comp_start + s.comp[j] * comp_factor;
  }
}

}  // namespace
#endif  // MSOL_RANK_KERNEL_SIMD

void completion_batch_simd(const SlaveStateView& s, Time now, Time send_start,
                           double comm_factor, double comp_factor, Time* out) {
#ifndef MSOL_RANK_KERNEL_SIMD
  completion_batch(s, now, send_start, comm_factor, comp_factor, out);
#else
  if (s.online != nullptr || s.speed != nullptr) {
    // Availability state is per-lane divergent (offline infinities, per-
    // slave speed divides); the scalar loop handles it.
    completion_batch(s, now, send_start, comm_factor, comp_factor, out);
    return;
  }
  // Widest ISA the host carries; every body is bit-identical, so this is a
  // pure throughput decision. Pre-AVX2 hosts fall through to scalar.
  if (rank_kernel_avx512_available()) {
    completion_batch_avx512(s, now, send_start, comm_factor, comp_factor, out);
    return;
  }
  if (rank_kernel_simd_available()) {
    completion_batch_avx2(s, now, send_start, comm_factor, comp_factor, out);
    return;
  }
  completion_batch(s, now, send_start, comm_factor, comp_factor, out);
#endif
}

void completion_batch_width(RankKernelWidth width, const SlaveStateView& s,
                            Time now, Time send_start, double comm_factor,
                            double comp_factor, Time* out) {
  if (width == RankKernelWidth::kAuto) {
    completion_batch_simd(s, now, send_start, comm_factor, comp_factor, out);
    return;
  }
#ifdef MSOL_RANK_KERNEL_SIMD
  if (s.online == nullptr && s.speed == nullptr) {
    if (width == RankKernelWidth::kAvx512 && rank_kernel_avx512_available()) {
      completion_batch_avx512(s, now, send_start, comm_factor, comp_factor,
                              out);
      return;
    }
    if (width == RankKernelWidth::kAvx2 && rank_kernel_simd_available()) {
      completion_batch_avx2(s, now, send_start, comm_factor, comp_factor, out);
      return;
    }
  }
#endif
  // kScalar, an unavailable ISA, or a view with availability state.
  completion_batch(s, now, send_start, comm_factor, comp_factor, out);
}

void completion_gather_simd(const SlaveStateView& s, Time now, Time send_start,
                            double comm_factor, double comp_factor,
                            const SlaveId* ids, int n, Time* out) {
#ifndef MSOL_RANK_KERNEL_SIMD
  completion_gather(s, now, send_start, comm_factor, comp_factor, ids, n, out);
#else
  if (s.speed != nullptr) {
    // Per-lane divides; the scalar loop handles them. (Online state does
    // NOT delegate here — the gather kernels blend offline lanes to
    // +infinity themselves.)
    completion_gather(s, now, send_start, comm_factor, comp_factor, ids, n,
                      out);
    return;
  }
  if (rank_kernel_avx512_available()) {
    completion_gather_avx512(s, now, send_start, comm_factor, comp_factor, ids,
                             n, out);
    return;
  }
  if (rank_kernel_simd_available()) {
    completion_gather_avx2(s, now, send_start, comm_factor, comp_factor, ids,
                           n, out);
    return;
  }
  completion_gather(s, now, send_start, comm_factor, comp_factor, ids, n, out);
#endif
}

void completion_gather_width(RankKernelWidth width, const SlaveStateView& s,
                             Time now, Time send_start, double comm_factor,
                             double comp_factor, const SlaveId* ids, int n,
                             Time* out) {
  if (width == RankKernelWidth::kAuto) {
    completion_gather_simd(s, now, send_start, comm_factor, comp_factor, ids,
                           n, out);
    return;
  }
#ifdef MSOL_RANK_KERNEL_SIMD
  if (s.speed == nullptr) {
    if (width == RankKernelWidth::kAvx512 && rank_kernel_avx512_available()) {
      completion_gather_avx512(s, now, send_start, comm_factor, comp_factor,
                               ids, n, out);
      return;
    }
    if (width == RankKernelWidth::kAvx2 && rank_kernel_simd_available()) {
      completion_gather_avx2(s, now, send_start, comm_factor, comp_factor, ids,
                             n, out);
      return;
    }
  }
#endif
  // kScalar, an unavailable ISA, or a view with per-slave speeds.
  completion_gather(s, now, send_start, comm_factor, comp_factor, ids, n, out);
}

namespace {

/// One slave's hypothetical completion: the probe the scalar argmin and the
/// SIMD bodies' tails run, in the batch kernels' operation order (multiply,
/// then the optional speed divide, then the add).
inline Time probe_one(const SlaveStateView& s, int j, Time now, Time send_start,
                      double comm_factor, double comp_factor) {
  const Time send_end = send_start + s.comm[j] * comm_factor;
  const Time comp_start = tmax(send_end, tmax(now, s.ready[j]));
  Time compute = s.comp[j] * comp_factor;
  if (s.speed != nullptr) compute /= s.speed[j];
  return comp_start + compute;
}

/// The sequential argmin's update rule over the lanes set in `hit` of a
/// block starting at slave `base`, whose completions are already in `c`.
/// `hit` holds the online lanes below the threshold the block was compared
/// against; the threshold only falls as the incumbent improves, so no other
/// lane can win and visiting the set bits in ascending order is the
/// sequential scan over the whole block.
inline void rescan_hits(const Time* c, unsigned hit, int base, SlaveId& best,
                        Time& best_completion) {
  for (; hit != 0; hit &= hit - 1) {
    const int l = __builtin_ctz(hit);
    if (c[l] < best_completion - kTimeEps) {
      best = base + l;
      best_completion = c[l];
    }
  }
}

/// Scalar prologue shared by the SIMD bodies: the first online slave wins
/// unconditionally, so the vector loop can start with a real incumbent.
/// Returns the index the vector loop resumes at.
inline int argmin_prologue(const SlaveStateView& s, Time now, Time send_start,
                           double comm_factor, double comp_factor,
                           SlaveId& best, Time& best_completion) {
  int j = 0;
  for (; j < s.m && best < 0; ++j) {
    if (s.online != nullptr && s.online[j] == 0) continue;
    best = j;
    best_completion = probe_one(s, j, now, send_start, comm_factor, comp_factor);
  }
  return j;
}

/// The sequential scan over slaves [j, m) from the incumbent (best,
/// best_completion): the scalar body (j = 0, best = -1) and the SIMD
/// bodies' tails. Offline slaves are skipped, not scored infinity: with
/// every slave offline the answer is -1, which an infinity entry would
/// steal.
inline void argmin_scalar_from(const SlaveStateView& s, int j, Time now,
                               Time send_start, double comm_factor,
                               double comp_factor, SlaveId& best,
                               Time& best_completion) {
  for (; j < s.m; ++j) {
    if (s.online != nullptr && s.online[j] == 0) continue;
    const Time completion =
        probe_one(s, j, now, send_start, comm_factor, comp_factor);
    if (best < 0 || completion < best_completion - kTimeEps) {
      best = j;
      best_completion = completion;
    }
  }
}

/// The scalar argmin: the pre-AVX2 body and RankKernelWidth::kScalar.
SlaveId rank_best_scalar(const SlaveStateView& s, Time now, Time send_start,
                         double comm_factor, double comp_factor) {
  SlaveId best = -1;
  Time best_completion = 0.0;
  argmin_scalar_from(s, 0, now, send_start, comm_factor, comp_factor, best,
                     best_completion);
  return best;
}

}  // namespace

#ifdef MSOL_RANK_KERNEL_SIMD
namespace {

// Block-skip argmin. Each block of lanes computes its completions with the
// scalar probe's exact operation sequence (the batch kernels' arithmetic,
// plus a lane divide by `speed`: vdivpd and divsd are both correctly
// rounded), then compares every lane against the incumbent's threshold
// best_completion - kTimeEps with an ordered less-than. The sequential scan
// only changes state on such a hit, so a block without one is skipped
// exactly; in a block with one, the hit lanes are rescanned in order with
// the scalar rule. NaN and +infinity never hit, and offline lanes are
// masked out of the hit set (the scalar scan skips them).

__attribute__((target("avx2"))) SlaveId argmin_avx2(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor) {
  SlaveId best = -1;
  Time best_completion = 0.0;
  int j = argmin_prologue(s, now, send_start, comm_factor, comp_factor, best,
                          best_completion);
  const Vd4 vnow = {now, now, now, now};
  const Vd4 vsend = {send_start, send_start, send_start, send_start};
  const Vd4 vcf = {comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd4 vpf = {comp_factor, comp_factor, comp_factor, comp_factor};
  __m256d vthr = _mm256_set1_pd(best_completion - kTimeEps);
  alignas(32) Time lanes[4];
  for (; j + 4 <= s.m; j += 4) {
    Vd4 comm, comp, ready;
    std::memcpy(&comm, s.comm + j, sizeof comm);
    std::memcpy(&comp, s.comp + j, sizeof comp);
    std::memcpy(&ready, s.ready + j, sizeof ready);
    const Vd4 send_end = vsend + comm * vcf;
    const Vd4 comp_start = vmax(send_end, vmax(vnow, ready));
    Vd4 compute = comp * vpf;
    if (s.speed != nullptr) {
      Vd4 speed;
      std::memcpy(&speed, s.speed + j, sizeof speed);
      compute = compute / speed;
    }
    const Vd4 completion = comp_start + compute;
    __m256d cv;
    std::memcpy(&cv, &completion, sizeof cv);
    unsigned hit = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(cv, vthr, _CMP_LT_OQ)));
    if (hit == 0) continue;
    if (s.online != nullptr) {
      const std::uint8_t* on = s.online + j;
      hit &= (on[0] != 0) | (on[1] != 0) << 1 | (on[2] != 0) << 2 |
             (on[3] != 0) << 3;
      if (hit == 0) continue;
    }
    std::memcpy(lanes, &completion, sizeof lanes);
    rescan_hits(lanes, hit, j, best, best_completion);
    vthr = _mm256_set1_pd(best_completion - kTimeEps);
  }
  argmin_scalar_from(s, j, now, send_start, comm_factor, comp_factor, best,
                     best_completion);
  return best;
}

__attribute__((target("avx512f"))) SlaveId argmin_avx512(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor) {
  SlaveId best = -1;
  Time best_completion = 0.0;
  int j = argmin_prologue(s, now, send_start, comm_factor, comp_factor, best,
                          best_completion);
  const Vd8 vnow = {now, now, now, now, now, now, now, now};
  const Vd8 vsend = {send_start, send_start, send_start, send_start,
                     send_start, send_start, send_start, send_start};
  const Vd8 vcf = {comm_factor, comm_factor, comm_factor, comm_factor,
                   comm_factor, comm_factor, comm_factor, comm_factor};
  const Vd8 vpf = {comp_factor, comp_factor, comp_factor, comp_factor,
                   comp_factor, comp_factor, comp_factor, comp_factor};
  __m512d vthr = _mm512_set1_pd(best_completion - kTimeEps);
  alignas(64) Time lanes[8];
  for (; j + 8 <= s.m; j += 8) {
    Vd8 comm, comp, ready;
    std::memcpy(&comm, s.comm + j, sizeof comm);
    std::memcpy(&comp, s.comp + j, sizeof comp);
    std::memcpy(&ready, s.ready + j, sizeof ready);
    const Vd8 send_end = vsend + comm * vcf;
    const Vd8 comp_start = vmax8(send_end, vmax8(vnow, ready));
    Vd8 compute = comp * vpf;
    if (s.speed != nullptr) {
      Vd8 speed;
      std::memcpy(&speed, s.speed + j, sizeof speed);
      compute = compute / speed;
    }
    const Vd8 completion = comp_start + compute;
    __m512d cv;
    std::memcpy(&cv, &completion, sizeof cv);
    unsigned hit = _mm512_cmp_pd_mask(cv, vthr, _CMP_LT_OQ);
    if (hit == 0) continue;
    if (s.online != nullptr) {
      // Widen the 8 online bytes to 64-bit lanes; nonzero = online. (The
      // zero-masking widen: the plain form starts from an undefined
      // register GCC 12 warns about.)
      std::uint64_t packed;
      std::memcpy(&packed, s.online + j, sizeof packed);
      const __m512i on = _mm512_maskz_cvtepu8_epi64(
          0xFF, _mm_cvtsi64_si128(static_cast<long long>(packed)));
      hit &= _mm512_test_epi64_mask(on, on);
      if (hit == 0) continue;
    }
    std::memcpy(lanes, &completion, sizeof lanes);
    rescan_hits(lanes, hit, j, best, best_completion);
    vthr = _mm512_set1_pd(best_completion - kTimeEps);
  }
  argmin_scalar_from(s, j, now, send_start, comm_factor, comp_factor, best,
                     best_completion);
  return best;
}

}  // namespace
#endif  // MSOL_RANK_KERNEL_SIMD

SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor) {
#ifdef MSOL_RANK_KERNEL_SIMD
  // Widest ISA the host carries; every body returns the scalar scan's
  // answer, so this is a pure throughput decision.
  if (rank_kernel_avx512_available()) {
    return argmin_avx512(s, now, send_start, comm_factor, comp_factor);
  }
  if (rank_kernel_simd_available()) {
    return argmin_avx2(s, now, send_start, comm_factor, comp_factor);
  }
#endif
  return rank_best_scalar(s, now, send_start, comm_factor, comp_factor);
}

SlaveId rank_best_completion_width(RankKernelWidth width,
                                   const SlaveStateView& s, Time now,
                                   Time send_start, double comm_factor,
                                   double comp_factor) {
  if (width == RankKernelWidth::kAuto) {
    return rank_best_completion(s, now, send_start, comm_factor, comp_factor);
  }
#ifdef MSOL_RANK_KERNEL_SIMD
  if (width == RankKernelWidth::kAvx512 && rank_kernel_avx512_available()) {
    return argmin_avx512(s, now, send_start, comm_factor, comp_factor);
  }
  if (width == RankKernelWidth::kAvx2 && rank_kernel_simd_available()) {
    return argmin_avx2(s, now, send_start, comm_factor, comp_factor);
  }
#endif
  // kScalar or an unavailable ISA.
  return rank_best_scalar(s, now, send_start, comm_factor, comp_factor);
}

}  // namespace msol::core
