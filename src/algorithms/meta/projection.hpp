#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"

namespace msol::algorithms::meta {

/// What one bounded forward simulation of a member policy produced.
struct ProjectionOutcome {
  /// The member's first decision at the snapshot instant — what the meta
  /// policy commits if this member wins.
  core::Decision first = core::Defer{};
  int commits = 0;          ///< tasks the member committed within the horizon
  core::Time makespan = 0.0;  ///< max projected comp_end; snapshot now() if 0
  bool stalled = false;     ///< deferred with no future event to wake on
};

/// A bounded forward simulator over a mirror of everything a live
/// OnePortEngine legally exposes through EngineView, driven by a member
/// policy — what PortfolioPolicy scores its members on.
///
/// The projection honours the on-line information model: availability and
/// speeds are frozen at their current values (future outages, recoveries,
/// and drift stay invisible, exactly as the live probes are), no future
/// releases arrive, and offline slaves probe as infinity and reject
/// commits. Timing arithmetic is offline::StepSimulator's one-port FIFO
/// step, seeded with the live port_free_at() / slave_ready_at()
/// observables, with each p_j scaled by the slave's current speed.
/// Approximations, deliberate and documented: the projection models one
/// port (port_capacity > 1 collapses to the earliest-free port the view
/// exposes), and a slave's tasks_in_system count drains to zero when its
/// ready-time passes (per-task completion instants of already-committed
/// work are not observable through the view).
///
/// The mirror is delta-driven: instead of re-snapshotting the live engine
/// per (member, decision), the projection subscribes to OnePortEngine's
/// delta feed and keeps persistent raw ready times (plus a multiset of
/// them, so advance() is O(log m) where a fresh snapshot scans O(m)),
/// online/speed/effective-comp arrays, and the pending FIFO — which sync()
/// patches forward by replaying the event suffix since the previous
/// decision. A full rebuild happens only when the mirror is unprimed, the
/// engine was reset (generation change), the log was trimmed past our
/// cursor, or a disruptive event (outage re-dispatch) rewrote state the
/// feed deliberately does not itemize.
///
/// run() then forward-simulates a member policy on scratch state layered
/// over the mirror: projected commits write ready times through an undo log
/// that rollback() unwinds, so the same mirror serves every member of a
/// portfolio at one decision and survives to the next.
///
/// Byte-identity contract: run() is pinned bit-identical to snapshotting
/// the live view afresh and running the same member — same decisions, same
/// outcome fields. The fresh snapshot is a test-support oracle
/// (tests/support/engine_projection.hpp), and
/// tests/test_meta_incremental.cpp enforces the contract end-to-end against
/// the rebuild-every-decision portfolio built on it. Two deliberate
/// representation differences are proven equivalent rather than avoided:
/// the mirror keeps *raw* busy-until values where the fresh snapshot clamps
/// to its birth now() (every consumer — kernel max-chains, slave_ready_at,
/// advance's strictly-after filter, tasks_in_system's threshold — re-clamps
/// against a now that can only have grown), and slave_state() reports
/// online=null when nobody is offline (the all-online byte array and the
/// null fast path are the same function; null additionally unlocks the
/// vector kernels, which are themselves memcmp-pinned to scalar).
class IncrementalProjection : public core::EngineView {
 public:
  explicit IncrementalProjection(const core::OnePortEngine& live);

  /// The engine this projection mirrors (identity check for cache reuse).
  const core::OnePortEngine* engine() const { return live_; }

  /// Brings the mirror up to date with the live engine: replays the delta
  /// suffix since the last sync, or rebuilds from the regular observables
  /// when the suffix is unusable (see the class comment). Must be called
  /// after the live engine may have advanced and before run().
  void sync();

  /// Diagnostics for the bench's resync-vs-rebuild columns.
  long long rebuilds() const { return rebuilds_; }
  long long resyncs() const { return resyncs_; }

  /// Forward-simulates `policy` from the synced mirror until it commits
  /// `horizon` tasks, drains pending, or stalls (defers with nothing left
  /// to wake on), on scratch state rolled back on return. The policy is
  /// consulted exactly when a live engine would consult it: port free and
  /// at least one task pending.
  ProjectionOutcome run(core::OnlineScheduler& policy, int horizon);

  // EngineView — every override replicates the fresh snapshot's observable
  // behavior exactly (see the byte-identity contract above).
  core::Time now() const override { return now_; }
  const platform::Platform& platform() const override {
    return live_->platform();
  }
  core::Time port_free_at() const override;
  bool is_available(core::SlaveId j) const override;
  double current_speed(core::SlaveId j) const override;
  core::Time slave_ready_at(core::SlaveId j) const override;
  int tasks_in_system(core::SlaveId j) const override;
  core::TaskId pending_front() const override;
  std::vector<core::TaskId> pending_tasks() const override;
  int pending_count() const override;
  int total_tasks() const override { return total_tasks_; }
  int completed_or_committed() const override {
    return base_committed_ + commits_;
  }
  const core::TaskSpec& task_spec(core::TaskId i) const override;
  std::optional<core::SlaveId> assignment_of(core::TaskId task) const override;
  core::Time completion_if_assigned(core::TaskId task,
                                    core::SlaveId j) const override;
  core::SlaveStateView slave_state() const override;
  const core::Schedule& schedule() const override { return schedule_; }
  const core::Trace& trace() const override { return trace_; }

 private:
  void rebuild();
  void apply(const core::DeltaEvent& event);
  /// Updates one mirror ready value and its multiset entry.
  void set_ready(core::SlaveId j, core::Time value);
  /// Unwinds every projected ready write back to the mirror value.
  void rollback();
  /// The mirror's (pre-run) ready value of j, looking through this run's
  /// projected writes — what the fresh snapshot calls base_ready_.
  core::Time base_ready_of(core::SlaveId j) const;
  void begin_run();
  void commit(const core::Assign& assign);
  bool advance(core::Time wait_until);

  const core::OnePortEngine* live_;

  // --- persistent mirror (survives across decisions) ----------------------
  std::vector<core::Time> ready_;  ///< raw busy-until (see class comment)
  std::multiset<core::Time> ready_sorted_;  ///< the same m values, ordered
  std::vector<std::uint8_t> online_;
  std::vector<double> speed_;          ///< observable current_speed
  std::vector<core::Time> eff_comp_;   ///< p_j / speed (the effective p_j)
  int offline_count_ = 0;
  std::deque<core::TaskId> pending_;  ///< FIFO mirror; specs read from live
  std::uint64_t cursor_ = 0;  ///< next delta sequence number to replay
  std::uint64_t generation_ = 0;
  bool primed_ = false;
  long long rebuilds_ = 0;
  long long resyncs_ = 0;

  /// Live in-system counts, snapshotted by begin_run() at most once per
  /// engine state (keyed on generation/seq/now) and shared by every member
  /// evaluated at that decision — replaces a per-query virtual upper_bound
  /// into the live engine.
  std::vector<int> base_in_system_;
  std::uint64_t base_in_system_gen_ = 0;
  std::uint64_t base_in_system_seq_ = 0;
  core::Time base_in_system_now_ = 0.0;
  bool base_in_system_primed_ = false;

  /// Generation-stamped per-slave slots: O(1) base-ready and in-flight
  /// lookups for tasks_in_system (the rank:queue hot path queries it once
  /// per candidate) with no O(m) clearing per run — a slot is live only
  /// while its stamp equals the current generation. The in-flight counts
  /// are re-derived lazily from proj_ends_ (<= horizon entries) whenever
  /// now_ moves or a commit lands, so every count is computed by exactly
  /// the comparisons the direct scan would make.
  std::uint64_t run_gen_ = 0;
  std::vector<std::uint64_t> write_slot_gen_;  ///< first projected write
  std::vector<core::Time> base_ready_slot_;
  mutable std::uint64_t inflight_gen_ = 0;
  mutable std::vector<std::uint64_t> inflight_slot_gen_;
  mutable std::vector<int> inflight_slot_;
  mutable std::size_t inflight_key_size_ = 0;
  mutable core::Time inflight_key_now_ = 0.0;
  mutable bool inflight_key_valid_ = false;

  // --- run scratch (valid during run(), rolled back after) ----------------
  core::Time now_ = 0.0;
  core::Time master_free_ = 0.0;
  std::size_t pending_pos_ = 0;  ///< cursor into pending_ (no mutation)
  int commits_ = 0;
  int base_committed_ = 0;
  int total_tasks_ = 0;
  /// Projected ready writes: (slave, pre-run mirror value), first write per
  /// slave only — rollback() restores in reverse.
  std::vector<std::pair<core::SlaveId, core::Time>> undo_;
  /// Projected completion instants, flat (slave, end) pairs — horizon-
  /// bounded, so the linear scans over it are cheap.
  std::vector<std::pair<core::SlaveId, core::Time>> proj_ends_;
  std::vector<std::pair<core::TaskId, core::SlaveId>> assigned_;
  core::Schedule schedule_;  ///< stays empty: projections do not record
  core::Trace trace_;        ///< stays empty
};

}  // namespace msol::algorithms::meta
