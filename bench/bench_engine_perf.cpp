// Substrate micro-benchmarks (google-benchmark): throughput of the one-port
// engine, the heuristics' decision rules, the exhaustive solver and the
// SLJF planner. These are the knobs that bound campaign turnaround.
//
// --json[=FILE] bypasses google-benchmark and runs a reduced self-timed
// pass (engine events/sec per policy, including a meta spec; ms per
// SLJF/SLJFWC plan per platform class against the frozen reference
// planner), writing machine-readable BENCH_engine.json for CI artifact
// upload.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "support/reference_engine.hpp"
#include "experiments/campaign.hpp"
#include "offline/deadline_solver.hpp"
#include "offline/exhaustive.hpp"
#include "perf_common.hpp"
#include "platform/generator.hpp"
#include "support/deadline_solver_reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace msol;

platform::Platform bench_platform(int m) {
  util::Rng rng(42);
  return platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
}

/// A streaming workload sized to the platform: poisson at 90% of the
/// one-port capacity, the regime a production sweep actually runs in.
core::Workload bench_workload(const platform::Platform& plat, int n) {
  util::Rng rng(7);
  const double rate = 0.9 * experiments::max_throughput(plat);
  return core::Workload::poisson(n, rate, rng);
}

void BM_EngineListScheduling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const platform::Platform plat = bench_platform(5);
  util::Rng rng(7);
  const core::Workload work = core::Workload::poisson(n, 5.0, rng);
  const auto ls = algorithms::make_scheduler("LS");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate(plat, work, *ls).makespan());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineListScheduling)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EngineSrptDeferHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const platform::Platform plat = bench_platform(5);
  const core::Workload work = core::Workload::all_at_zero(n);
  const auto srpt = algorithms::make_scheduler("SRPT");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate(plat, work, *srpt).makespan());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSrptDeferHeavy)->Arg(100)->Arg(1000);

// --- production engine vs the scan-based reference -------------------------
// 64 slaves x 10k tasks, poisson at 90% load. Identical platform, workload
// and policy on both engines; the only variable is the decision-loop
// machinery (one cheap source per wake-up kind, completions in a heap, O(1)
// indexed pending vs full scans + O(pending) find). Policy selects what is
// measured: RR's O(1) decide isolates the engine event loop (the headline
// number, >10x here), LS adds its per-decision placement probe (>2x), SRPT
// is defer/wake-bound. items_per_second is tasks scheduled per wall second.

template <bool kReference>
void engine_compare(benchmark::State& state, const char* policy) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const platform::Platform plat = bench_platform(m);
  const core::Workload work = bench_workload(plat, n);
  const auto scheduler = algorithms::make_scheduler(policy);
  for (auto _ : state) {
    if (kReference) {
      benchmark::DoNotOptimize(
          core::simulate_reference(plat, work, *scheduler).makespan());
    } else {
      benchmark::DoNotOptimize(
          core::simulate(plat, work, *scheduler).makespan());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EngineOnePortRR(benchmark::State& state) {
  engine_compare<false>(state, "RR");
}
void BM_EngineReferenceRR(benchmark::State& state) {
  engine_compare<true>(state, "RR");
}
void BM_EngineOnePortLS(benchmark::State& state) {
  engine_compare<false>(state, "LS");
}
void BM_EngineReferenceLS(benchmark::State& state) {
  engine_compare<true>(state, "LS");
}
void BM_EngineOnePortSRPT(benchmark::State& state) {
  engine_compare<false>(state, "SRPT");
}
void BM_EngineReferenceSRPT(benchmark::State& state) {
  engine_compare<true>(state, "SRPT");
}

BENCHMARK(BM_EngineOnePortRR)
    ->Args({8, 1000})
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineReferenceRR)
    ->Args({8, 1000})
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineOnePortLS)
    ->Args({8, 1000})
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineReferenceLS)
    ->Args({8, 1000})
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineOnePortSRPT)
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineReferenceSRPT)
    ->Args({64, 10000})
    ->Unit(benchmark::kMillisecond);

void BM_SljfPlanner(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(42);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kCommHomogeneous, 5, rng);
  const std::vector<core::Time> releases(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline::sljf_plan(plat, releases).makespan);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SljfPlanner)->Arg(100)->Arg(1000);

void BM_SljfwcPlanner(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const platform::Platform plat = bench_platform(5);
  const std::vector<core::Time> releases(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline::sljfwc_plan(plat, releases).makespan);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SljfwcPlanner)->Arg(100)->Arg(1000);

void BM_ExhaustiveSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const platform::Platform plat = bench_platform(3);
  const core::Workload work = core::Workload::all_at_zero(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        offline::solve_optimal(plat, work, core::Objective::kMakespan)
            .objective);
  }
}
BENCHMARK(BM_ExhaustiveSolver)->Arg(6)->Arg(9)->Arg(12);

// --- reduced self-timed --json mode ----------------------------------------

struct SelfTimed {
  double events_per_sec = 0.0;  // best-of-reps, simulate() only
  double setup_sec = 0.0;       // platform + workload + scheduler build
};

/// Best-of-`reps` wall-clock throughput of one simulate() configuration, in
/// scheduled tasks ("events") per second. Setup (platform, workload and
/// scheduler construction) is timed separately and never counts toward the
/// throughput figure.
SelfTimed events_per_sec(const char* policy, int m, int n, int reps) {
  SelfTimed out;
  const auto setup_start = std::chrono::steady_clock::now();
  const platform::Platform plat = bench_platform(m);
  const core::Workload work = bench_workload(plat, n);
  const auto scheduler = algorithms::make_scheduler(policy);
  out.setup_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - setup_start)
                      .count();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(core::simulate(plat, work, *scheduler).makespan());
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() > 0.0)
      out.events_per_sec = std::max(out.events_per_sec, n / elapsed.count());
  }
  return out;
}

/// Wall milliseconds per plan: median, p10 and p90 over `reps` plans,
/// for the production planner and the frozen reference on one instance.
struct PlannerTimed {
  double ms = 0.0, ms_p10 = 0.0, ms_p90 = 0.0;
  double reference_ms = 0.0;
  bool identical = true;
};

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

/// One SLJF or SLJFWC plan of `n` tasks released together (what the
/// on-line wrapper plans at its first decision) on a `cls` platform of `m`
/// slaves. Production and reference runs alternate so host drift hits both
/// alike; every production plan is also checked against the reference.
PlannerTimed ms_per_plan(bool comm_aware, platform::PlatformClass cls, int m,
                         int n, int reps) {
  util::Rng rng(42);
  const platform::Platform plat =
      platform::PlatformGenerator().generate(cls, m, rng);
  const std::vector<core::Time> releases(static_cast<std::size_t>(n), 0.0);
  const auto plan = comm_aware ? offline::sljfwc_plan : offline::sljf_plan;
  const auto reference = comm_aware ? offline::sljfwc_plan_reference
                                    : offline::sljf_plan_reference;
  auto timed = [&](auto planner, offline::OfflinePlan& out) {
    const auto start = std::chrono::steady_clock::now();
    out = planner(plat, releases);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<double> ms, reference_ms;
  PlannerTimed out;
  for (int r = 0; r < reps; ++r) {
    offline::OfflinePlan got, want;
    ms.push_back(timed(plan, got));
    reference_ms.push_back(timed(reference, want));
    out.identical = out.identical && got.assignment == want.assignment &&
                    got.makespan == want.makespan;
  }
  out.ms = quantile(ms, 0.5);
  out.ms_p10 = quantile(ms, 0.1);
  out.ms_p90 = quantile(ms, 0.9);
  out.reference_ms = quantile(reference_ms, 0.5);
  return out;
}

std::string host_json() {
  return "{\"cores\":" + std::to_string(bench::host_threads()) +
         ",\"simd\":\"" + bench::simd_name() + "\"}";
}

int run_json(const std::string& path) {
  struct Case {
    const char* policy;
    int slaves, tasks, reps;
  };
  // RR isolates the event loop, LS adds the placement probe, SRPT is
  // defer/wake-bound, the hedge exercises the meta layer's dispatch.
  const Case cases[] = {
      {"RR", 8, 1000, 5},
      {"RR", 64, 10000, 3},
      {"LS", 8, 1000, 5},
      {"LS", 64, 10000, 3},
      {"SRPT", 8, 1000, 5},
      {"hedge:LS;rank:queue+window:12+hyst:2", 8, 1000, 3},
  };
  std::string json = "{\"bench\":\"engine_perf\",\"unit\":\"events/sec\","
                     "\"host\":" + host_json() + ",\"cases\":[";
  bool first = true;
  for (const Case& c : cases) {
    const SelfTimed timed = events_per_sec(c.policy, c.slaves, c.tasks, c.reps);
    // The process high-water mark as of this case's completion.
    const long rss_kb = bench::peak_rss_kb();
    if (!first) json += ',';
    first = false;
    json += "{\"policy\":\"" + std::string(c.policy) + "\"";
    json += ",\"slaves\":" + std::to_string(c.slaves);
    json += ",\"tasks\":" + std::to_string(c.tasks);
    json += ",\"events_per_sec\":" + std::to_string(timed.events_per_sec);
    json += ",\"setup_sec\":" + std::to_string(timed.setup_sec);
    json += ",\"rss_peak_kb\":" + std::to_string(rss_kb) + "}";
    std::cout << c.policy << " m=" << c.slaves << " n=" << c.tasks << ": "
              << timed.events_per_sec << " events/sec (setup "
              << timed.setup_sec << " s, peak RSS " << rss_kb
              << " kb)\n";
  }
  // Planner rows: one SLJF and one SLJFWC plan per platform class at the
  // paper's Figure-1 size; baseline_ratio = reference ms / production ms.
  constexpr int kPlanSlaves = 5, kPlanTasks = 1000, kPlanReps = 15;
  json += "],\"planner_cases\":[";
  first = true;
  bool identical = true;
  for (const bool comm_aware : {false, true}) {
    for (const platform::PlatformClass cls :
         {platform::PlatformClass::kFullyHomogeneous,
          platform::PlatformClass::kCommHomogeneous,
          platform::PlatformClass::kCompHomogeneous,
          platform::PlatformClass::kFullyHeterogeneous}) {
      const char* planner = comm_aware ? "SLJFWC" : "SLJF";
      const PlannerTimed t =
          ms_per_plan(comm_aware, cls, kPlanSlaves, kPlanTasks, kPlanReps);
      identical = identical && t.identical;
      const double ratio = t.ms > 0.0 ? t.reference_ms / t.ms : 0.0;
      if (!first) json += ',';
      first = false;
      json += "{\"planner\":\"" + std::string(planner) + "\"";
      json += ",\"class\":\"" + platform::to_string(cls) + "\"";
      json += ",\"slaves\":" + std::to_string(kPlanSlaves);
      json += ",\"tasks\":" + std::to_string(kPlanTasks);
      json += ",\"reps\":" + std::to_string(kPlanReps);
      json += ",\"ms_per_plan\":" + std::to_string(t.ms);
      json += ",\"ms_per_plan_p10\":" + std::to_string(t.ms_p10);
      json += ",\"ms_per_plan_p90\":" + std::to_string(t.ms_p90);
      json += ",\"reference_ms_per_plan\":" + std::to_string(t.reference_ms);
      json += ",\"baseline_ratio\":" + std::to_string(ratio) + "}";
      std::cout << planner << " " << platform::to_string(cls) << " m="
                << kPlanSlaves << " n=" << kPlanTasks << ": " << t.ms << " ms/plan (p10 " << t.ms_p10
                << ", p90 " << t.ms_p90 << "; reference " << t.reference_ms
                << " ms, x" << ratio << ")\n";
    }
  }
  if (!identical) {
    std::cerr << "bench_engine_perf: planner differs from the reference\n";
    return 1;
  }
  json += "]}";
  return bench::write_json(path, json, "bench_engine_perf");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return run_json("BENCH_engine.json");
    if (arg.rfind("--json=", 0) == 0) return run_json(arg.substr(7));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
