// Fleet-scale engine throughput: the SoA ranking kernel vs the scalar-probe
// baseline, at platform sizes the micro-bench never reaches (up to 4096
// slaves x 100k tasks). Every row runs the IDENTICAL (platform, workload,
// policy) on the default engine in two ways, which differ only in how
// placement probes are evaluated:
//
//   scalar   the policy wrapped in ScalarProbeScheduler
//            (tests/support/scalar_probe_view.hpp): it sees the engine
//            through a forwarding view without slave_state(), so every
//            probe is a per-slave virtual loop. The forwarding adds one
//            call per probe, so this column reads lower than the removed
//            in-engine scalar option did; it is a baseline, not the
//            pre-kernel engine.
//   kernel   the policy as is: batched ranking kernels over the engine's
//            SoA slave state.
//
// Every timed column is the median of kReps runs, with p10/p90 written
// next to it; the scalar and kernel runs (and the sharded row's four
// configurations) alternate rep by rep so host drift hits every column
// alike. Output is events (scheduled tasks) per second, the speedup ratio
// of the medians, setup time (platform + workload generation, EXCLUDED
// from the timed region) and the process peak RSS after the row (getrusage
// ru_maxrss — monotone across rows, so rows run smallest-first and the last
// row's value is the run's peak).
//
// Each row also micro-benches the ranking kernel at the row's slave count:
// branch-free scalar completion_batch vs the explicitly vectorized
// completion_batch_simd (probes/sec each) — measuring whether the
// compiler's autovectorization of the scalar loop already matched the
// hand-vectorized form (outputs are bit-identical either way) — and LS's
// argmin, the scalar rank_best_completion body vs the dispatched
// block-skip SIMD body (same answer either way).
//
// A second table covers the sharded engine (core/sharded_engine.hpp): the
// same (platform, workload, policy) run as one 16384-slave one-port engine
// (K=1) vs K one-port clusters under hash routing, at fleet sizes the
// single engine's O(m) per-decision cost makes painful. Each sharded row is
// additionally measured at shard_threads 1, 2 and 4 (the util::ThreadPool
// advancing the K engines) — output is byte-identical at every thread
// count, so the t2/t4 columns are pure wall-clock; the speedup they show is
// bounded by the host's core count (reported as host_threads in the JSON).
// Each sharded row also times ShardedEngine::validate_shards on one run:
// the serial loop over shards at shard_threads 1 (validate_ms_t1) vs one
// pool job per shard at shard_threads 4 (validate_ms_t4).
// Peak RSS is recorded after every shard count.
//
// Modes: the shared perf-bench command line (bench/perf_common.hpp), with
// BENCH_fleet.json as the --json artifact.

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/rank_kernel.hpp"
#include "core/sharded_engine.hpp"
#include "experiments/campaign.hpp"
#include "platform/generator.hpp"
#include "perf_common.hpp"
#include "support/scalar_probe_view.hpp"
#include "util/rng.hpp"

namespace {

using namespace msol;
using bench::fmt;

// Keeps simulate() results observable without google-benchmark.
volatile double g_sink = 0.0;

/// Runs per timed column, full and small scale alike: enough for a median
/// and a p10/p90 spread.
constexpr int kReps = 5;

struct Row {
  const char* policy;
  int slaves;
  int tasks;
};

struct RowResult {
  Row row;
  bench::Spread scalar_eps;  // events/sec, scalar-probe baseline
  bench::Spread kernel_eps;  // events/sec, ranking kernels
  double kernel_scalar_mps = 0.0;  // completion_batch, million probes/sec
  double kernel_simd_mps = 0.0;    // completion_batch_simd, same input
  double argmin_scalar_mps = 0.0;  // rank_best_completion, scalar body
  double argmin_simd_mps = 0.0;    // rank_best_completion, dispatched
  double setup_sec = 0.0;     // platform + workload generation
  long rss_peak_kb = 0;       // process peak RSS after this row
  double speedup() const {
    return scalar_eps.median > 0.0 ? kernel_eps.median / scalar_eps.median
                                   : 0.0;
  }
  double kernel_speedup() const {
    return kernel_scalar_mps > 0.0 ? kernel_simd_mps / kernel_scalar_mps : 0.0;
  }
  double argmin_speedup() const {
    return argmin_scalar_mps > 0.0 ? argmin_simd_mps / argmin_scalar_mps : 0.0;
  }
};

/// One sharded-engine comparison: the same instance as a single K=1
/// one-port engine vs `shards` one-port clusters (hash routing).
struct ShardedRow {
  const char* policy;
  int slaves;
  int tasks;
  int shards;
};

struct ShardedResult {
  ShardedRow row;
  bench::Spread k1_eps;          // events/sec, ShardedEngine with K=1
  bench::Spread sharded_eps;     // events/sec, K=row.shards, shard_threads=1
  bench::Spread sharded_t2_eps;  // same run, shard_threads=2
  bench::Spread sharded_t4_eps;  // same run, shard_threads=4
  bench::Spread validate_ms_t1;  // validate_shards(), shard_threads=1
  bench::Spread validate_ms_t4;  // validate_shards(), shard_threads=4
  long rss_peak_kb = 0;      // process peak RSS after this shard count
  double speedup() const {
    return k1_eps.median > 0.0 ? sharded_eps.median / k1_eps.median : 0.0;
  }
  double thread_speedup() const {
    return sharded_eps.median > 0.0
               ? sharded_t4_eps.median / sharded_eps.median
               : 0.0;
  }
};

/// Throughput of one simulate() run. The scheduler is constructed inside
/// (stateful policies must start fresh per rep) but the timed region
/// covers only simulate(); `scalar` wraps it in ScalarProbeScheduler.
double events_per_sec(const platform::Platform& plat,
                      const core::Workload& work, const char* policy,
                      bool scalar) {
  std::unique_ptr<core::OnlineScheduler> scheduler =
      algorithms::make_scheduler(policy);
  if (scalar) {
    scheduler =
        std::make_unique<core::ScalarProbeScheduler>(std::move(scheduler));
  }
  const auto start = std::chrono::steady_clock::now();
  g_sink = core::simulate(plat, work, *scheduler).makespan();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() > 0.0 ? work.size() / elapsed.count() : 0.0;
}

/// Which kernel entry point kernel_probes_mps times.
enum class Kernel { kBatchScalar, kBatchSimd, kArgminScalar, kArgminSimd };

/// Million completion probes per second over a static m-slave view:
/// completion_batch / completion_batch_simd, or the scalar / dispatched
/// rank_best_completion argmin. Deterministic inputs; each scalar/SIMD pair
/// produces identical output (asserted by tests/test_rank_kernel_simd.cpp),
/// so this measures throughput only.
double kernel_probes_mps(int m, Kernel kernel) {
  util::Rng rng(1234);
  std::vector<core::Time> comm(m), comp(m), ready(m), out(m);
  for (int j = 0; j < m; ++j) {
    comm[j] = rng.uniform(0.1, 10.0);
    comp[j] = rng.uniform(1.0, 100.0);
    ready[j] = rng.uniform(0.0, 50.0);
  }
  core::SlaveStateView view;
  view.comm = comm.data();
  view.comp = comp.data();
  view.ready = ready.data();
  view.m = m;
  // Repeat until the timed region is long enough to trust (~20 ms).
  long long iters = 0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{0.0};
  do {
    for (int r = 0; r < 64; ++r) {
      switch (kernel) {
        case Kernel::kBatchScalar:
          core::completion_batch(view, 25.0, 30.0, 1.0, 1.0, out.data());
          g_sink = out[m - 1];
          break;
        case Kernel::kBatchSimd:
          core::completion_batch_simd(view, 25.0, 30.0, 1.0, 1.0, out.data());
          g_sink = out[m - 1];
          break;
        case Kernel::kArgminScalar:
          g_sink = core::rank_best_completion_width(
              core::RankKernelWidth::kScalar, view, 25.0, 30.0, 1.0, 1.0);
          break;
        case Kernel::kArgminSimd:
          g_sink = core::rank_best_completion(view, 25.0, 30.0, 1.0, 1.0);
          break;
      }
      ++iters;
    }
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < 0.02);
  return elapsed.count() > 0.0
             ? iters * static_cast<double>(m) / elapsed.count() / 1e6
             : 0.0;
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
  const core::Workload work = core::Workload::poisson(row.tasks, rate, wrng);
  out.setup_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - setup_start)
                      .count();

  std::vector<double> scalar, kernel;
  for (int r = 0; r < kReps; ++r) {
    scalar.push_back(events_per_sec(plat, work, row.policy, true));
    kernel.push_back(events_per_sec(plat, work, row.policy, false));
  }
  out.scalar_eps = bench::spread_of(scalar);
  out.kernel_eps = bench::spread_of(kernel);

  out.kernel_scalar_mps = kernel_probes_mps(row.slaves, Kernel::kBatchScalar);
  out.kernel_simd_mps = kernel_probes_mps(row.slaves, Kernel::kBatchSimd);
  out.argmin_scalar_mps =
      kernel_probes_mps(row.slaves, Kernel::kArgminScalar);
  out.argmin_simd_mps = kernel_probes_mps(row.slaves, Kernel::kArgminSimd);

  out.rss_peak_kb = bench::peak_rss_kb();
  return out;
}

/// Throughput of one ShardedEngine run (construction + load + run inside
/// the timed region, matching events_per_sec which times simulate() —
/// itself engine construction + run).
double sharded_events_per_sec(const platform::Platform& plat,
                              const core::Workload& work, const char* policy,
                              int shards, int shard_threads) {
  core::ShardedEngineOptions options;
  options.shards = shards;  // routing: default hash
  options.shard_threads = shard_threads;
  const auto start = std::chrono::steady_clock::now();
  core::ShardedEngine engine(
      plat, [&] { return algorithms::make_scheduler(policy); },
      std::move(options));
  engine.load(work);
  engine.run_to_completion();
  g_sink = engine.schedule().makespan();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() > 0.0 ? work.size() / elapsed.count() : 0.0;
}

/// Wall time (ms) of validate_shards() over kReps calls after one
/// hash-routed run (untimed): at shard_threads 1 that is the serial loop
/// over shards, above it one pool job per shard.
bench::Spread validate_ms(const platform::Platform& plat,
                          const core::Workload& work, const char* policy,
                          int shards, int shard_threads) {
  core::ShardedEngineOptions options;
  options.shards = shards;
  options.shard_threads = shard_threads;
  core::ShardedEngine engine(
      plat, [&] { return algorithms::make_scheduler(policy); },
      std::move(options));
  engine.load(work);
  engine.run_to_completion();
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    engine.validate_shards();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    ms.push_back(elapsed.count());
  }
  return bench::spread_of(ms);
}

ShardedResult run_sharded_row(const ShardedRow& row) {
  ShardedResult out;
  out.row = row;
  util::Rng prng(42);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, row.slaves, prng);
  util::Rng wrng(7);
  const double rate = 0.9 * experiments::max_throughput(plat);
  const core::Workload work = core::Workload::poisson(row.tasks, rate, wrng);

  std::vector<double> k1, t1, t2, t4;
  for (int r = 0; r < kReps; ++r) {
    k1.push_back(sharded_events_per_sec(plat, work, row.policy, 1, 1));
    t1.push_back(
        sharded_events_per_sec(plat, work, row.policy, row.shards, 1));
    t2.push_back(
        sharded_events_per_sec(plat, work, row.policy, row.shards, 2));
    t4.push_back(
        sharded_events_per_sec(plat, work, row.policy, row.shards, 4));
  }
  out.k1_eps = bench::spread_of(k1);
  out.sharded_eps = bench::spread_of(t1);
  out.sharded_t2_eps = bench::spread_of(t2);
  out.sharded_t4_eps = bench::spread_of(t4);
  out.validate_ms_t1 = validate_ms(plat, work, row.policy, row.shards, 1);
  out.validate_ms_t4 = validate_ms(plat, work, row.policy, row.shards, 4);
  out.rss_peak_kb = bench::peak_rss_kb();
  return out;
}

std::vector<Row> rows_for_scale(bool small) {
  if (small) {
    // CI smoke: exercises both configurations and the JSON schema in a few
    // seconds; speedups at this size are not the acceptance numbers.
    return {{"LS", 64, 5000}, {"RR", 128, 8000}, {"LS", 128, 8000}};
  }
  return {{"LS", 256, 20000},
          {"RR", 1024, 50000},
          {"LS", 1024, 50000},
          {"RR", 4096, 100000},
          {"LS", 4096, 100000}};
}

std::vector<ShardedRow> sharded_rows_for_scale(bool small) {
  if (small) {
    // CI smoke: exercises the sharded path and its JSON keys in seconds.
    return {{"LS", 256, 8000, 4}};
  }
  // 16384 slaves is past where the single engine's O(m) per-decision cost
  // dominates; rows ascend in shard count so rss_peak_kb stays the
  // monotone per-shard-count peak.
  return {{"LS", 16384, 60000, 4},
          {"LS", 16384, 60000, 16},
          {"RR", 16384, 60000, 16}};
}

/// "median [p10, p90]" for the stdout table.
std::ostream& operator<<(std::ostream& os, const bench::Spread& s) {
  return os << s.median << " [" << s.p10 << ", " << s.p90 << "]";
}

/// `"key":median,"key_p10":p10,"key_p90":p90` for one timed column.
std::string spread_json(const std::string& key, const bench::Spread& s) {
  return ",\"" + key + "\":" + fmt(s.median) + ",\"" + key +
         "_p10\":" + fmt(s.p10) + ",\"" + key + "_p90\":" + fmt(s.p90);
}

std::string to_json(const std::vector<RowResult>& results,
                    const std::vector<ShardedResult>& sharded, bool small) {
  std::string json = "{\"bench\":\"fleet_scale\",\"unit\":\"events/sec\"";
  json += ",\"scale\":\"" + std::string(small ? "small" : "full") + "\"";
  json += ",\"simd_available\":";
  json += core::rank_kernel_simd_available() ? "true" : "false";
  json += ",\"avx512_available\":";
  json += core::rank_kernel_avx512_available() ? "true" : "false";
  json += ",\"host_threads\":" + std::to_string(bench::host_threads());
  json += ",\"reps\":" + std::to_string(kReps);
  json += ",\"cases\":[";
  bool first = true;
  for (const RowResult& r : results) {
    if (!first) json += ',';
    first = false;
    json += "{\"policy\":\"" + std::string(r.row.policy) + "\"";
    json += ",\"slaves\":" + std::to_string(r.row.slaves);
    json += ",\"tasks\":" + std::to_string(r.row.tasks);
    json += spread_json("events_per_sec_scalar", r.scalar_eps);
    json += spread_json("events_per_sec_kernel", r.kernel_eps);
    json += ",\"speedup\":" + fmt(r.speedup());
    json += ",\"kernel_scalar_mprobes\":" + fmt(r.kernel_scalar_mps);
    json += ",\"kernel_simd_mprobes\":" + fmt(r.kernel_simd_mps);
    json += ",\"kernel_simd_speedup\":" + fmt(r.kernel_speedup());
    json += ",\"argmin_scalar_mprobes\":" + fmt(r.argmin_scalar_mps);
    json += ",\"argmin_simd_mprobes\":" + fmt(r.argmin_simd_mps);
    json += ",\"argmin_simd_speedup\":" + fmt(r.argmin_speedup());
    json += ",\"setup_sec\":" + fmt(r.setup_sec);
    json += ",\"rss_peak_kb\":" + std::to_string(r.rss_peak_kb) + "}";
  }
  json += "],\"sharded\":[";
  first = true;
  for (const ShardedResult& r : sharded) {
    if (!first) json += ',';
    first = false;
    json += "{\"policy\":\"" + std::string(r.row.policy) + "\"";
    json += ",\"slaves\":" + std::to_string(r.row.slaves);
    json += ",\"tasks\":" + std::to_string(r.row.tasks);
    json += ",\"shards\":" + std::to_string(r.row.shards);
    json += ",\"routing\":\"hash\"";
    json += spread_json("events_per_sec_k1", r.k1_eps);
    json += spread_json("events_per_sec_sharded", r.sharded_eps);
    json += spread_json("events_per_sec_sharded_t2", r.sharded_t2_eps);
    json += spread_json("events_per_sec_sharded_t4", r.sharded_t4_eps);
    json += ",\"sharded_speedup\":" + fmt(r.speedup());
    json += ",\"shard_threads_speedup\":" + fmt(r.thread_speedup());
    json += spread_json("validate_ms_t1", r.validate_ms_t1);
    json += spread_json("validate_ms_t4", r.validate_ms_t4);
    json += ",\"rss_peak_kb\":" + std::to_string(r.rss_peak_kb) + "}";
  }
  json += "]}";
  return json;
}

/// Every key the JSON emitter above writes; --check-schema fails if the
/// committed artifact is missing any of them (i.e. the schema drifted
/// without the artifact being regenerated).
const char* const kSchemaKeys[] = {
    "\"bench\":\"fleet_scale\"", "\"unit\":\"events/sec\"",
    "\"scale\":",                "\"cases\":",
    "\"policy\":",               "\"slaves\":",
    "\"tasks\":",                "\"events_per_sec_scalar\":",
    "\"events_per_sec_kernel\":", "\"speedup\":",
    "\"setup_sec\":",            "\"rss_peak_kb\":",
    "\"simd_available\":",       "\"kernel_scalar_mprobes\":",
    "\"kernel_simd_mprobes\":",  "\"kernel_simd_speedup\":",
    "\"sharded\":",              "\"shards\":",
    "\"routing\":",              "\"events_per_sec_k1\":",
    "\"events_per_sec_sharded\":", "\"sharded_speedup\":",
    "\"events_per_sec_sharded_t2\":", "\"events_per_sec_sharded_t4\":",
    "\"shard_threads_speedup\":", "\"avx512_available\":",
    "\"host_threads\":",           "\"argmin_scalar_mprobes\":",
    "\"argmin_simd_mprobes\":",    "\"argmin_simd_speedup\":",
    "\"validate_ms_t1\":",         "\"validate_ms_t4\":",
    "\"reps\":",
    "\"events_per_sec_scalar_p10\":", "\"events_per_sec_scalar_p90\":",
    "\"events_per_sec_kernel_p10\":", "\"events_per_sec_kernel_p90\":",
    "\"events_per_sec_k1_p10\":",     "\"events_per_sec_k1_p90\":",
    "\"events_per_sec_sharded_p10\":", "\"events_per_sec_sharded_p90\":",
    "\"events_per_sec_sharded_t2_p10\":",
    "\"events_per_sec_sharded_t2_p90\":",
    "\"events_per_sec_sharded_t4_p10\":",
    "\"events_per_sec_sharded_t4_p90\":",
    "\"validate_ms_t1_p10\":",        "\"validate_ms_t1_p90\":",
    "\"validate_ms_t4_p10\":",        "\"validate_ms_t4_p90\":",
};

}  // namespace

int main(int argc, char** argv) {
  bench::PerfArgs args;
  if (!bench::parse_perf_args(argc, argv, "bench_fleet_scale",
                              "BENCH_fleet.json", args)) {
    return 1;
  }
  if (!args.check_schema.empty()) {
    return bench::check_schema(args.check_schema, kSchemaKeys,
                               "bench_fleet_scale");
  }
  const bool small = args.small;

  std::vector<RowResult> results;
  for (const Row& row : rows_for_scale(small)) {
    RowResult r = run_row(row);
    std::cout << r.row.policy << " m=" << r.row.slaves << " n=" << r.row.tasks
              << ": scalar " << r.scalar_eps << " ev/s, kernel "
              << r.kernel_eps << " ev/s (x" << r.speedup() << "), batch "
              << r.kernel_scalar_mps << " -> " << r.kernel_simd_mps
              << " Mprobe/s (x" << r.kernel_speedup() << "), argmin "
              << r.argmin_scalar_mps << " -> " << r.argmin_simd_mps
              << " Mprobe/s (x" << r.argmin_speedup() << "), setup "
              << r.setup_sec << " s, peak RSS " << r.rss_peak_kb << " kb\n";
    results.push_back(r);
  }

  std::cout << "simd kernel: " << bench::simd_name()
            << ", host threads: " << bench::host_threads() << "\n";

  std::vector<ShardedResult> sharded;
  for (const ShardedRow& row : sharded_rows_for_scale(small)) {
    ShardedResult r = run_sharded_row(row);
    std::cout << r.row.policy << " m=" << r.row.slaves << " n=" << r.row.tasks
              << " K=" << r.row.shards << ": single " << r.k1_eps
              << " ev/s, sharded " << r.sharded_eps << " ev/s (x"
              << r.speedup() << "), threads 1/2/4 " << r.sharded_eps << "/"
              << r.sharded_t2_eps << "/" << r.sharded_t4_eps << " ev/s (x"
              << r.thread_speedup() << "), validate t1/t4 "
              << r.validate_ms_t1 << "/" << r.validate_ms_t4
              << " ms, peak RSS " << r.rss_peak_kb << " kb\n";
    sharded.push_back(r);
  }

  if (args.json) {
    return bench::write_json(args.json_path, to_json(results, sharded, small),
                             "bench_fleet_scale");
  }
  return 0;
}
