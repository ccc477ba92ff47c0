// Meta-policy decision throughput: the delta-driven incremental projection
// path (persistent IncrementalProjection + stamp memo + gather-form SIMD
// probes) vs the rebuild-every-decision baseline frozen in test support
// (RebuildPortfolioPolicy, tests/support/engine_projection.hpp). Every
// row runs the IDENTICAL (platform, workload, spec) through both paths —
// decisions are byte-identical (pinned by tests/test_meta_incremental.cpp),
// so the ratio is pure evaluation cost.
//
// Output is decisions per second (the meta layer's unit of work: one
// decide() consult, which for a portfolio forward-sims every member), the
// speedup ratio, and the incremental path's projection accounting — how
// many syncs replayed the delta log (resync) vs re-snapshotted the engine
// (rebuild), plus the member forward-sims skipped by the stamp memo.
// Hedge rows run members directly on the live view (no projections), so
// both columns time the same HedgePolicy: they measure run-to-run noise
// rather than a projection gap.
//
// Modes: the shared perf-bench command line (bench/perf_common.hpp), with
// BENCH_meta.json as the --json artifact.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "core/engine.hpp"
#include "core/rank_kernel.hpp"
#include "experiments/campaign.hpp"
#include "platform/generator.hpp"
#include "perf_common.hpp"
#include "support/engine_projection.hpp"
#include "util/rng.hpp"

namespace {

using namespace msol;
using bench::fmt;

// Keeps simulate() results observable without google-benchmark.
volatile double g_sink = 0.0;

struct Row {
  const char* spec;
  int slaves;
  int tasks;
  int reps;  // best-of-reps on both paths
};

/// One timed run of one evaluation path, plus the diagnostics the
/// incremental path exposes (zero on the rebuild baseline and for hedges).
struct PathResult {
  double dps = 0.0;  // decisions/sec, best of reps
  long long decisions = 0;
  long long resyncs = 0;
  long long rebuilds = 0;
  long long memo_hits = 0;
};

struct RowResult {
  Row row;
  PathResult incremental;
  PathResult rebuild;
  double setup_sec = 0.0;  // platform + workload generation (untimed)
  long rss_peak_kb = 0;    // process peak RSS after this row
  double speedup() const {
    return rebuild.dps > 0.0 ? incremental.dps / rebuild.dps : 0.0;
  }
};

/// Best-of-reps decision throughput of one evaluation path. The policy is
/// constructed inside (stateful: member caches, memo, projection) but the
/// timed region covers only simulate(). Diagnostics come from the last rep
/// (they are deterministic across reps).
PathResult best_decisions_per_sec(const platform::Platform& plat,
                                  const core::Workload& work,
                                  const algorithms::meta::MetaSpec& spec,
                                  bool rebuild, int reps) {
  PathResult out;
  for (int r = 0; r < reps; ++r) {
    std::unique_ptr<core::OnlineScheduler> policy;
    if (rebuild && spec.kind == algorithms::meta::MetaKind::kPortfolio) {
      policy =
          std::make_unique<algorithms::meta::RebuildPortfolioPolicy>(spec);
    } else {
      policy = algorithms::meta::make_meta_policy(spec);
    }
    const auto start = std::chrono::steady_clock::now();
    g_sink = core::simulate(plat, work, *policy).makespan();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // One decide() per scheduled task is the floor; portfolios report the
    // exact consult count (defers included).
    long long decisions = work.size();
    if (const auto* portfolio =
            dynamic_cast<const algorithms::meta::PortfolioPolicy*>(
                policy.get())) {
      decisions = portfolio->decisions();
      out.memo_hits = portfolio->memo_hits();
      if (portfolio->projection() != nullptr) {
        out.resyncs = portfolio->projection()->resyncs();
        out.rebuilds = portfolio->projection()->rebuilds();
      }
    } else if (const auto* baseline = dynamic_cast<
                   const algorithms::meta::RebuildPortfolioPolicy*>(
                   policy.get())) {
      decisions = baseline->decisions();
    }
    out.decisions = decisions;
    if (elapsed.count() > 0.0) {
      out.dps = std::max(out.dps, decisions / elapsed.count());
    }
  }
  return out;
}

RowResult run_row(const Row& row) {
  RowResult out;
  out.row = row;

  const auto setup_start = std::chrono::steady_clock::now();
  util::Rng prng(42);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, row.slaves, prng);
  util::Rng wrng(7);
  const double rate = 0.9 * experiments::max_throughput(plat);
  // Bursty arrivals at 90% of one-port capacity: the regime meta-policies
  // exist for (and the meta scenario grids run). Bursts keep a real pending
  // backlog in front of the scheduler, so the baseline's per-(member,
  // decision) re-snapshot pays its O(pending) spec-copy walk — exactly the
  // cost the delta feed amortizes away.
  const core::Workload work = core::Workload::bursty(
      row.tasks, row.tasks / 32 + 1, 1.0 / rate, wrng);
  const algorithms::meta::MetaSpec spec =
      algorithms::meta::parse_meta_spec(row.spec);
  out.setup_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - setup_start)
                      .count();

  out.incremental = best_decisions_per_sec(plat, work, spec,
                                           /*rebuild=*/false,
                                           row.reps);
  out.rebuild = best_decisions_per_sec(plat, work, spec,
                                       /*rebuild=*/true, row.reps);
  out.rss_peak_kb = bench::peak_rss_kb();
  return out;
}

std::vector<Row> rows_for_scale(bool small) {
  if (small) {
    // CI smoke: exercises both paths, every spec kind, and the JSON schema
    // in a few seconds; speedups at this size are not the acceptance
    // numbers.
    return {{"portfolio:LS;rank:queue+horizon:4", 64, 600, 2},
            {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", 64, 600, 2},
            {"hedge:LS;rank:queue+window:8+hyst:2", 64, 600, 2}};
  }
  // The ISSUE's acceptance row is the 4-member portfolio at 1024 slaves:
  // the incremental path must clear 3x the rebuild baseline there.
  return {{"portfolio:LS;rank:queue+horizon:4", 256, 3000, 2},
          {"portfolio:LS;rank:queue+horizon:4", 1024, 3000, 2},
          {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", 256, 3000, 2},
          {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", 1024, 3000, 2},
          {"hedge:LS;rank:queue+window:8+hyst:2", 256, 3000, 2},
          {"hedge:LS;rank:queue+window:8+hyst:2", 1024, 3000, 2}};
}

std::string to_json(const std::vector<RowResult>& results, bool small) {
  std::string json = "{\"bench\":\"meta_perf\",\"unit\":\"decisions/sec\"";
  json += ",\"scale\":\"" + std::string(small ? "small" : "full") + "\"";
  json += ",\"simd_available\":";
  json += core::rank_kernel_simd_available() ? "true" : "false";
  json += ",\"avx512_available\":";
  json += core::rank_kernel_avx512_available() ? "true" : "false";
  json += ",\"cases\":[";
  bool first = true;
  for (const RowResult& r : results) {
    if (!first) json += ',';
    first = false;
    json += "{\"spec\":\"" + std::string(r.row.spec) + "\"";
    json += ",\"slaves\":" + std::to_string(r.row.slaves);
    json += ",\"tasks\":" + std::to_string(r.row.tasks);
    json += ",\"decisions\":" + std::to_string(r.incremental.decisions);
    json += ",\"decisions_per_sec_incremental\":" + fmt(r.incremental.dps);
    json += ",\"decisions_per_sec_rebuild\":" + fmt(r.rebuild.dps);
    json += ",\"speedup\":" + fmt(r.speedup());
    json += ",\"projection_resyncs\":" + std::to_string(r.incremental.resyncs);
    json +=
        ",\"projection_rebuilds\":" + std::to_string(r.incremental.rebuilds);
    json += ",\"memo_hits\":" + std::to_string(r.incremental.memo_hits);
    json += ",\"setup_sec\":" + fmt(r.setup_sec);
    json += ",\"rss_peak_kb\":" + std::to_string(r.rss_peak_kb) + "}";
  }
  json += "]}";
  return json;
}

/// Every key the JSON emitter above writes; --check-schema fails if the
/// committed artifact is missing any of them (i.e. the schema drifted
/// without the artifact being regenerated).
const char* const kSchemaKeys[] = {
    "\"bench\":\"meta_perf\"",
    "\"unit\":\"decisions/sec\"",
    "\"scale\":",
    "\"simd_available\":",
    "\"avx512_available\":",
    "\"cases\":",
    "\"spec\":",
    "\"slaves\":",
    "\"tasks\":",
    "\"decisions\":",
    "\"decisions_per_sec_incremental\":",
    "\"decisions_per_sec_rebuild\":",
    "\"speedup\":",
    "\"projection_resyncs\":",
    "\"projection_rebuilds\":",
    "\"memo_hits\":",
    "\"setup_sec\":",
    "\"rss_peak_kb\":",
};

}  // namespace

int main(int argc, char** argv) {
  bench::PerfArgs args;
  if (!bench::parse_perf_args(argc, argv, "bench_meta_perf",
                              "BENCH_meta.json", args)) {
    return 1;
  }
  if (!args.check_schema.empty()) {
    return bench::check_schema(args.check_schema, kSchemaKeys,
                               "bench_meta_perf");
  }

  std::vector<RowResult> results;
  for (const Row& row : rows_for_scale(args.small)) {
    RowResult r = run_row(row);
    std::cout << r.row.spec << " m=" << r.row.slaves << " n=" << r.row.tasks
              << ": rebuild " << r.rebuild.dps << " dec/s, incremental "
              << r.incremental.dps << " dec/s (x" << r.speedup()
              << "), syncs " << r.incremental.resyncs << " resync / "
              << r.incremental.rebuilds << " rebuild, memo hits "
              << r.incremental.memo_hits << ", setup " << r.setup_sec
              << " s, peak RSS " << r.rss_peak_kb << " kb\n";
    results.push_back(r);
  }

  std::cout << "simd kernel: " << bench::simd_name() << "\n";

  if (args.json) {
    return bench::write_json(args.json_path, to_json(results, args.small),
                             "bench_meta_perf");
  }
  return 0;
}
