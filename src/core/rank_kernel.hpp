#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace msol::core {

/// Structure-of-arrays snapshot of the per-slave state a completion probe
/// reads: one pointer per field into the owning engine's dense arrays, valid
/// only for the duration of the call that handed it out (the next engine
/// step may reallocate). `online`/`speed` are null on static platforms
/// (everything online, unit speed) so the kernels take their branch-free
/// fast path.
///
/// An empty() view means the EngineView keeps no dense state (the frozen
/// reference engine and the test-support ScalarProbeView deliberately
/// never do): EngineView's batch probes and the policy filters then take
/// their per-slave virtual loops. That one switch is what keeps the
/// differential harness honest: the same policy runs kernel-backed on
/// OnePortEngine and probe-backed on the other views, and the schedules
/// must match bit-for-bit.
struct SlaveStateView {
  const Time* comm = nullptr;           ///< c_j (nominal port seconds)
  const Time* comp = nullptr;           ///< p_j (nominal compute seconds)
  const Time* ready = nullptr;          ///< raw busy-until (may lag now)
  const std::uint8_t* online = nullptr; ///< null = every slave online
  const double* speed = nullptr;        ///< null = unit speed everywhere
  int m = 0;

  bool empty() const { return comm == nullptr || m == 0; }
};

/// Batched form of EngineView::completion_if_assigned for one task against
/// every slave: out[j] = completion of a hypothetical commitment to slave j
/// (+infinity for offline slaves). `send_start` is the caller-hoisted
/// max(now, port_free_at, release) — loop-invariant, so m probes share it.
///
/// The arithmetic is operation-for-operation the engine's scalar probe
/// (same max() chains, same multiply-then-divide order), because the
/// differential suite requires the fast path to be bit-identical to the
/// virtual-probe path, not merely close.
void completion_batch(const SlaveStateView& s, Time now, Time send_start,
                      double comm_factor, double comp_factor, Time* out);

/// Gather variant of completion_batch for a candidate *subset*: out[i] is
/// the hypothetical completion on slave ids[i] (+infinity when offline).
/// Candidate ids must be valid slave indices — the kernel indexes the dense
/// arrays directly, exactly like the full-sweep form.
void completion_gather(const SlaveStateView& s, Time now, Time send_start,
                       double comm_factor, double comp_factor,
                       const SlaveId* ids, int n, Time* out);

/// Batched form of EngineView::best_completion_slave: the available slave
/// minimizing the hypothetical completion, with list scheduling's exact
/// tie-break (a later slave wins only when strictly better by more than
/// kTimeEps); -1 when no slave is available.
///
/// This is the LS hot path (EngineView::best_completion_slave calls it on
/// every dense view), so it runs the widest block-skip body the host carries
/// (AVX-512, else AVX2, else the scalar loop) on every view, availability
/// state included. Each block computes its lanes with the scalar probe's
/// exact operation sequence and compares them against the incumbent's
/// threshold best - kTimeEps; the sequential scan only changes state on
/// such a hit, so blocks without one are skipped and in a block with one
/// the hit lanes are rescanned in order with the scalar rule. The answer is
/// the scalar scan's, index for index (tests/test_rank_kernel_simd.cpp pins
/// it).
SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor);

/// True when the explicitly vectorized kernel below will actually run:
/// the build carries it (GCC/Clang vector extensions on x86-64, compiled
/// for AVX2 via a function-level target attribute) AND the host CPU
/// supports AVX2 (checked at runtime). False means completion_batch_simd
/// is an alias for the scalar loop.
bool rank_kernel_simd_available();

/// Explicitly vectorized completion_batch for the static fast path (4
/// doubles per lane group, unaligned loads, branch-free bit-select max).
/// Every lane performs exactly the scalar probe's operation sequence —
/// same multiplies, adds, and max selections, no FMA contraction, no
/// reassociation — so the output is bit-identical to completion_batch
/// (tests/test_rank_kernel_simd.cpp asserts memcmp equality; the
/// bench_fleet_scale kernel columns measure whether the compiler's
/// autovectorization of the scalar loop was already achieving this).
/// Views with online/speed state delegate to the scalar form. No
/// production path calls the dense batch forms (the engine ranks through
/// rank_best_completion); they remain the benches' kernel-throughput probe.
void completion_batch_simd(const SlaveStateView& s, Time now, Time send_start,
                           double comm_factor, double comp_factor, Time* out);

/// True when the AVX-512 variant below will actually run: the build carries
/// the vector-extension kernels AND the host CPU reports AVX-512
/// Foundation. Independent of rank_kernel_simd_available() — a host can
/// have AVX2 without AVX-512 (most do), never the reverse in practice.
bool rank_kernel_avx512_available();

/// Which explicit kernel body the *_width entry points run. kAuto is what
/// the undecorated forms dispatch: widest ISA the host supports, scalar
/// when none. The pinned values force one body (falling back to scalar when
/// the build or host lacks the ISA) so the bit-identity tests can memcmp
/// every implementation against every other on the same host.
enum class RankKernelWidth : std::uint8_t {
  kAuto,
  kScalar,
  kAvx2,
  kAvx512,
};

/// completion_batch through one pinned kernel body (see RankKernelWidth).
/// Same contract as completion_batch_simd: views with online/speed state
/// always delegate to the scalar form, and every width is bit-identical to
/// scalar (no FMA, no reassociation — the kernel TU is additionally built
/// with -ffp-contract=off because the AVX-512 target would otherwise let
/// the compiler contract mul+add into the FMA forms that ISA carries).
void completion_batch_width(RankKernelWidth width, const SlaveStateView& s,
                            Time now, Time send_start, double comm_factor,
                            double comp_factor, Time* out);

/// rank_best_completion through one pinned body (see RankKernelWidth);
/// kAuto dispatches like rank_best_completion, and unavailable ISAs fall
/// back to the scalar loop, so every width is comparable on the same host.
SlaveId rank_best_completion_width(RankKernelWidth width,
                                   const SlaveStateView& s, Time now,
                                   Time send_start, double comm_factor,
                                   double comp_factor);

/// Explicitly vectorized completion_gather: hardware gathers
/// (vgatherdpd — SlaveId is 32-bit, so 4/8 ids feed one i32gather) pull the
/// candidate subset's comm/comp/ready lanes, then the lane arithmetic is
/// the exact sequence of the batch kernels above, so the output is
/// bit-identical to the scalar gather (memcmp-pinned in
/// tests/test_rank_kernel_simd.cpp). Unlike the dense-batch kernels, views
/// WITH an `online` array stay vectorized: offline lanes are blended to
/// +infinity branch-free, matching the scalar loop's early-out bit-for-bit —
/// this is what lets the meta layer's incremental projections (whose
/// platforms carry availability) run their probe hot path 4/8-wide. Views
/// with a `speed` array delegate to the scalar form (per-lane divides).
void completion_gather_simd(const SlaveStateView& s, Time now, Time send_start,
                            double comm_factor, double comp_factor,
                            const SlaveId* ids, int n, Time* out);

/// completion_gather through one pinned kernel body (see RankKernelWidth);
/// kAuto dispatches like completion_gather_simd, and unavailable ISAs fall
/// back to scalar, so every width is memcmp-comparable on the same host.
void completion_gather_width(RankKernelWidth width, const SlaveStateView& s,
                             Time now, Time send_start, double comm_factor,
                             double comp_factor, const SlaveId* ids, int n,
                             Time* out);

}  // namespace msol::core
