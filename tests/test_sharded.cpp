// Sharded engine determinism: the PlatformPartition's stable striping, the
// K=1 byte-identity with OnePortEngine, reproducibility of merged output
// for K > 1 under every routing, and — at the runner level — byte-identity
// of sharded-cell CSV/JSONL across worker thread counts and across a
// kill+resume, exactly the guarantees the unsharded runner already makes.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability_stream.hpp"
#include "platform/generator.hpp"
#include "platform/partition.hpp"
#include "runner/checkpoint.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

platform::Platform make_platform(int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
}

// --------------------------------------------------------------- partition --

TEST(PlatformPartition, StripesSlavesModuloKPreservingSpecs) {
  const platform::Platform plat = make_platform(10, 1);
  const platform::PlatformPartition part(plat, 3);
  ASSERT_EQ(part.num_shards(), 3);
  // Shard sizes: 10 slaves striped mod 3 -> 4, 3, 3.
  EXPECT_EQ(part.shard_platform(0).size(), 4);
  EXPECT_EQ(part.shard_platform(1).size(), 3);
  EXPECT_EQ(part.shard_platform(2).size(), 3);
  for (SlaveId j = 0; j < plat.size(); ++j) {
    const int k = part.shard_of(j);
    const SlaveId local = part.local_id(j);
    EXPECT_EQ(k, static_cast<int>(j) % 3);
    EXPECT_EQ(local, j / 3);
    EXPECT_EQ(part.global_id(k, local), j);  // round-trip
    // The shard platform carries the global slave's exact c/p values.
    EXPECT_EQ(part.shard_platform(k).comm(local), plat.comm(j));
    EXPECT_EQ(part.shard_platform(k).comp(local), plat.comp(j));
  }
}

TEST(PlatformPartition, SingleShardIsTheIdentity) {
  const platform::Platform plat = make_platform(5, 2);
  const platform::PlatformPartition part(plat, 1);
  ASSERT_EQ(part.shard_platform(0).size(), plat.size());
  for (SlaveId j = 0; j < plat.size(); ++j) {
    EXPECT_EQ(part.shard_of(j), 0);
    EXPECT_EQ(part.local_id(j), j);
    EXPECT_EQ(part.shard_platform(0).comm(j), plat.comm(j));
    EXPECT_EQ(part.shard_platform(0).comp(j), plat.comp(j));
  }
}

TEST(PlatformPartition, RejectsImpossibleShardCounts) {
  const platform::Platform plat = make_platform(4, 3);
  EXPECT_THROW(platform::PlatformPartition(plat, 0), std::invalid_argument);
  EXPECT_THROW(platform::PlatformPartition(plat, -1), std::invalid_argument);
  EXPECT_THROW(platform::PlatformPartition(plat, 5), std::invalid_argument);
}

TEST(PlatformPartition, SlicesAvailabilityByShardSlaveOrder) {
  const platform::Platform plat = make_platform(5, 4);
  const platform::PlatformPartition part(plat, 2);
  EXPECT_TRUE(part.slice_availability({}, 0).empty());  // disabled stays so

  std::vector<platform::AvailabilityProfile> global;
  for (SlaveId j = 0; j < 5; ++j) {
    global.emplace_back(std::vector<platform::AvailabilitySpan>{
        {static_cast<Time>(j) + 1.0, false, 1.0}});
  }
  for (int k = 0; k < 2; ++k) {
    const auto sliced = part.slice_availability(global, k);
    const auto& slaves = part.shard_slaves(k);
    ASSERT_EQ(sliced.size(), slaves.size());
    for (std::size_t i = 0; i < slaves.size(); ++i) {
      ASSERT_EQ(sliced[i].spans().size(), 1u);
      EXPECT_EQ(sliced[i].spans()[0].begin,
                static_cast<Time>(slaves[i]) + 1.0);
    }
  }
  EXPECT_THROW(part.slice_availability(
                   std::vector<platform::AvailabilityProfile>(3), 0),
               std::invalid_argument);
}

// ------------------------------------------------------------ K=1 identity --

struct Scenario {
  platform::Platform platform;
  Workload workload;
  EngineOptions options;
};

Scenario make_scenario(std::uint64_t seed, bool with_availability) {
  util::Rng rng(seed);
  const int m = static_cast<int>(rng.uniform_int(2, 8));
  platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  Workload work = Workload::poisson(50, rng.uniform(0.5, 3.0), rng);

  EngineOptions options;
  options.enable_trace = true;
  options.slowdowns.push_back(SlowdownWindow{
      static_cast<SlaveId>(rng.uniform_int(0, m - 1)), 1.0, 6.0, 2.0});
  if (with_availability) {
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, 8.0, 0.2, 60.0, rng);
  }
  return Scenario{std::move(plat), std::move(work), std::move(options)};
}

/// A fixed m=8 fleet (so K=8 sharding is exercised for real) with releases
/// quantized to a 0.5 grid — duplicate release instants are what make the
/// least-loaded epoch loop route several tasks off one load observation.
Scenario make_fleet_scenario(std::uint64_t seed, bool with_availability) {
  util::Rng rng(seed);
  const int m = 8;
  platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  std::vector<TaskSpec> tasks = Workload::poisson(60, 2.0, rng).tasks();
  for (TaskSpec& t : tasks) {
    t.release = std::floor(t.release * 2.0) / 2.0;
  }
  Workload work{std::move(tasks)};

  EngineOptions options;
  options.enable_trace = true;
  options.slowdowns.push_back(SlowdownWindow{
      static_cast<SlaveId>(rng.uniform_int(0, m - 1)), 1.0, 6.0, 2.0});
  if (with_availability) {
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, 8.0, 0.2, 60.0, rng);
  }
  return Scenario{std::move(plat), std::move(work), std::move(options)};
}

SchedulerFactory factory_for(const std::string& name) {
  return [name] { return algorithms::make_scheduler(name); };
}

void expect_matches_unsharded(const ShardedEngine& sharded,
                              const OnePortEngine& plain,
                              const std::string& label) {
  const Schedule& a = sharded.schedule();
  const Schedule& e = plain.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;

  const auto& ta = sharded.trace().events();
  const auto& te = plain.trace().events();
  ASSERT_EQ(ta.size(), te.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].kind, te[i].kind) << label << " event " << i;
    ASSERT_EQ(ta[i].time, te[i].time) << label << " event " << i;
    ASSERT_EQ(ta[i].task, te[i].task) << label << " event " << i;
    ASSERT_EQ(ta[i].slave, te[i].slave) << label << " event " << i;
    ASSERT_EQ(ta[i].aux, te[i].aux) << label << " event " << i;
  }
  EXPECT_EQ(sharded.disruption().redispatches, plain.disruption().redispatches)
      << label;
  EXPECT_EQ(sharded.disruption().lost_work, plain.disruption().lost_work)
      << label;
}

TEST(ShardedEngine, SingleShardIsByteIdenticalToOnePortEngine) {
  for (std::uint64_t seed : {10ULL, 20ULL, 30ULL}) {
    for (const bool avail : {false, true}) {
      for (const char* policy : {"LS", "SRPT", "RR"}) {
        const Scenario s = make_scenario(seed, avail);
        const std::string label = std::string(policy) + " seed " +
                                  std::to_string(seed) +
                                  (avail ? " churn" : " static");

        const auto plain_policy = algorithms::make_scheduler(policy);
        OnePortEngine plain(s.platform, *plain_policy, s.options);
        plain.load(s.workload);
        plain.run_to_completion();

        for (const ShardRouting routing :
             {ShardRouting::kHash, ShardRouting::kRoundRobin,
              ShardRouting::kLeastLoaded}) {
          ShardedEngineOptions options;
          options.shards = 1;
          options.routing = routing;
          options.engine = s.options;
          ShardedEngine sharded(s.platform, factory_for(policy), options);
          sharded.load(s.workload);
          sharded.run_to_completion();
          expect_matches_unsharded(
              sharded, plain, label + " " + to_string(routing));
        }
      }
    }
  }
}

// --------------------------------------------------- K>1 merged determinism --

/// Canonical text rendering of one run's schedule, trace and disruption
/// counters — two runs are "byte-identical" iff these strings match.
std::string render(const Schedule& schedule, const Trace& trace,
                   const DisruptionStats& disruption) {
  std::ostringstream out;
  out.precision(17);
  for (int i = 0; i < schedule.size(); ++i) {
    const TaskRecord& r = schedule.at(i);
    out << r.task << ' ' << r.slave << ' ' << r.release << ' ' << r.send_start
        << ' ' << r.send_end << ' ' << r.comp_start << ' ' << r.comp_end
        << '\n';
  }
  for (const TraceEvent& e : trace.events()) {
    out << static_cast<int>(e.kind) << ' ' << e.time << ' ' << e.task << ' '
        << e.slave << ' ' << e.aux << '\n';
  }
  out << disruption.redispatches << ' ' << disruption.lost_work << '\n';
  return out.str();
}

/// Runs the sharded engine and returns the rendering of its merged views.
std::string render_merged(const Scenario& s, const char* policy, int shards,
                          ShardRouting routing, int shard_threads = 1) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.routing = routing;
  options.shard_threads = shard_threads;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for(policy), options);
  engine.load(s.workload);
  engine.run_to_completion();

  // Every shard's schedule must independently satisfy the one-port model.
  for (int k = 0; k < engine.num_shards(); ++k) {
    validate_or_throw(engine.partition().shard_platform(k),
                      engine.shard_workload(k), engine.shard_engine(k).schedule(),
                      engine.shard_options(k));
  }

  return render(engine.schedule(), engine.trace(), engine.disruption());
}

TEST(ShardedEngine, MergedOutputIsReproducibleForEveryRouting) {
  for (const int shards : {2, 8}) {
    for (const ShardRouting routing :
         {ShardRouting::kHash, ShardRouting::kRoundRobin,
          ShardRouting::kLeastLoaded}) {
      const Scenario s = make_scenario(777, /*with_availability=*/true);
      ASSERT_GE(s.platform.size(), 2);
      const int k = std::min(shards, s.platform.size());
      const std::string first = render_merged(s, "LS", k, routing);
      const std::string second = render_merged(s, "LS", k, routing);
      EXPECT_EQ(first, second)
          << "K=" << k << " routing " << to_string(routing);
      EXPECT_FALSE(first.empty());
    }
  }
}

TEST(ShardedEngine, ParallelAdvancementIsByteIdenticalToSequential) {
  // The tentpole guarantee: shard_threads is purely a wall-clock knob.
  // K x threads matrix over both a stateless routing and the
  // state-dependent one, on a churn-availability fleet.
  for (const int shards : {1, 2, 8}) {
    for (const ShardRouting routing :
         {ShardRouting::kHash, ShardRouting::kLeastLoaded}) {
      const Scenario s = make_fleet_scenario(4242, /*with_availability=*/true);
      const std::string sequential =
          render_merged(s, "LS", shards, routing, /*shard_threads=*/1);
      ASSERT_FALSE(sequential.empty());
      for (const int threads : {2, 4}) {
        EXPECT_EQ(render_merged(s, "LS", shards, routing, threads), sequential)
            << "K=" << shards << " routing " << to_string(routing)
            << " threads " << threads;
      }
      // 0 = hardware concurrency must also be byte-identical.
      EXPECT_EQ(render_merged(s, "LS", shards, routing, /*shard_threads=*/0),
                sequential)
          << "K=" << shards << " routing " << to_string(routing) << " auto";
    }
  }
}

/// The original least-loaded router, kept here as the oracle for
/// ShardedEngine's cached-load router: K plain OnePortEngines built exactly
/// as ShardedEngine builds its shards (same shard platforms, options and
/// fresh scheduler instances), stepped through the release epochs together,
/// each task routed by the original per-injection O(K) scan over the live
/// engines (fewest pending, then earlier port free time beyond kTimeEps,
/// then lower shard id).
struct ScanRouted {
  std::vector<std::unique_ptr<OnlineScheduler>> schedulers;
  std::vector<std::unique_ptr<OnePortEngine>> engines;
  /// Per shard: the global task ids it was routed, in injection order.
  std::vector<std::vector<TaskId>> tasks;
};

ScanRouted route_by_original_scan(const ShardedEngine& sharded,
                                  const Workload& workload,
                                  const std::string& policy) {
  const int num = sharded.num_shards();
  ScanRouted out;
  out.tasks.resize(static_cast<std::size_t>(num));
  for (int k = 0; k < num; ++k) {
    out.schedulers.push_back(algorithms::make_scheduler(policy));
    out.schedulers.back()->reset();
    out.engines.push_back(std::make_unique<OnePortEngine>(
        sharded.partition().shard_platform(k), *out.schedulers.back(),
        sharded.shard_options(k)));
  }
  const std::vector<TaskSpec>& loaded = workload.tasks();
  std::size_t i = 0;
  while (i < loaded.size()) {
    const Time t = loaded[i].release;
    for (auto& engine : out.engines) engine->run_until(t);
    while (i < loaded.size() && loaded[i].release == t) {
      int best = 0;
      for (int k = 1; k < num; ++k) {
        const OnePortEngine& e = *out.engines[static_cast<std::size_t>(k)];
        const OnePortEngine& b = *out.engines[static_cast<std::size_t>(best)];
        if (e.pending_count() < b.pending_count() ||
            (e.pending_count() == b.pending_count() &&
             e.port_free_at() < b.port_free_at() - kTimeEps)) {
          best = k;
        }
      }
      out.tasks[static_cast<std::size_t>(best)].push_back(
          static_cast<TaskId>(i));
      out.engines[static_cast<std::size_t>(best)]->inject_task(loaded[i]);
      ++i;
    }
  }
  for (auto& engine : out.engines) engine->run_to_completion();
  return out;
}

TEST(ShardedEngine, IncrementalLeastLoadedMatchesOriginalScan) {
  // The cached-load router must reproduce the original per-injection O(K)
  // engine scan decision for decision — the quantized releases give it
  // multi-task epochs where the once-per-instant hoisting actually bites.
  for (const std::uint64_t seed : {51ULL, 52ULL, 53ULL}) {
    for (const int shards : {2, 8}) {
      const Scenario s = make_fleet_scenario(seed, /*with_availability=*/true);
      for (const int threads : {1, 4}) {
        const std::string label = "seed " + std::to_string(seed) + " K=" +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        ShardedEngineOptions options;
        options.shards = shards;
        options.routing = ShardRouting::kLeastLoaded;
        options.shard_threads = threads;
        options.engine = s.options;
        ShardedEngine sharded(s.platform, factory_for("LS"), options);
        sharded.load(s.workload);
        sharded.run_to_completion();

        const ScanRouted scan = route_by_original_scan(sharded, s.workload,
                                                       "LS");
        for (int k = 0; k < shards; ++k) {
          const OnePortEngine& expected =
              *scan.engines[static_cast<std::size_t>(k)];
          const OnePortEngine& actual = sharded.shard_engine(k);
          std::vector<TaskId> routed;
          for (TaskId local = 0; local < actual.total_tasks(); ++local) {
            routed.push_back(sharded.global_task(k, local));
          }
          EXPECT_EQ(routed, scan.tasks[static_cast<std::size_t>(k)])
              << label << " shard " << k;
          EXPECT_EQ(render(actual.schedule(), actual.trace(),
                           actual.disruption()),
                    render(expected.schedule(), expected.trace(),
                           expected.disruption()))
              << label << " shard " << k;
        }
      }
    }
  }
}

TEST(ShardedEngine, LazyAvailabilityMatchesMaterializedForkedSlicing) {
  // Sharded lazy availability re-keys each local cursor to its global slave
  // id, so it must be byte-identical to materializing the forked profiles
  // up front and letting the partition slice them.
  platform::LazyAvailabilitySpec spec;
  spec.model = platform::AvailabilityModel::kChurn;
  spec.mtbf = 8.0;
  spec.outage_frac = 0.2;
  spec.horizon = 60.0;
  spec.seed = 97;

  const Scenario base = make_fleet_scenario(7171, /*with_availability=*/false);
  Scenario lazy = base;
  lazy.options.lazy_availability = spec;
  Scenario materialized = base;
  materialized.options.availability =
      platform::generate_availability_forked(spec, base.platform.size());

  for (const int shards : {1, 2, 8}) {
    for (const ShardRouting routing :
         {ShardRouting::kHash, ShardRouting::kLeastLoaded}) {
      for (const int threads : {1, 4}) {
        EXPECT_EQ(render_merged(lazy, "LS", shards, routing, threads),
                  render_merged(materialized, "LS", shards, routing, threads))
            << "K=" << shards << " routing " << to_string(routing)
            << " threads " << threads;
      }
    }
  }
}

TEST(ShardedEngine, EveryTaskIsScheduledExactlyOnceAcrossShards) {
  const Scenario s = make_scenario(888, /*with_availability=*/false);
  const int k = std::min(3, s.platform.size());
  ShardedEngineOptions options;
  options.shards = k;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for("LS"), options);
  engine.load(s.workload);
  engine.run_to_completion();

  std::vector<int> seen(s.workload.size(), 0);
  for (int i = 0; i < engine.schedule().size(); ++i) {
    const TaskRecord& r = engine.schedule().at(i);
    ASSERT_GE(r.task, 0);
    ASSERT_LT(r.task, s.workload.size());
    ++seen[static_cast<std::size_t>(r.task)];
    // Merged order is globally sorted by send_start.
    if (i > 0) {
      EXPECT_LE(engine.schedule().at(i - 1).send_start, r.send_start);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardedEngine, RoundRobinRoutesByInjectionIndexModuloK) {
  const Scenario s = make_scenario(999, /*with_availability=*/false);
  const int k = std::min(2, s.platform.size());
  ShardedEngineOptions options;
  options.shards = k;
  options.routing = ShardRouting::kRoundRobin;
  options.engine = s.options;
  ShardedEngine engine(s.platform, factory_for("LS"), options);
  engine.load(s.workload);
  engine.run_to_completion();
  for (int shard = 0; shard < k; ++shard) {
    const Workload local = engine.shard_workload(shard);
    for (int t = 0; t < local.size(); ++t) {
      EXPECT_EQ(static_cast<int>(engine.global_task(shard, t)) % k, shard);
    }
  }
}

TEST(ShardedEngine, GuardsMisuse) {
  const Scenario s = make_scenario(111, /*with_availability=*/false);
  {
    ShardedEngineOptions options;
    options.shards = s.platform.size() + 1;
    options.engine = s.options;
    EXPECT_THROW(ShardedEngine(s.platform, factory_for("LS"), options),
                 std::invalid_argument);
  }
  {
    // The partition owns lazy-stream re-keying; a caller-supplied mapping
    // would silently fight it, so it is rejected up front.
    ShardedEngineOptions options;
    options.shards = 1;
    options.engine = s.options;
    options.engine.lazy_availability.model =
        platform::AvailabilityModel::kChurn;
    options.engine.lazy_stream_ids = {0};
    EXPECT_THROW(ShardedEngine(s.platform, factory_for("LS"), options),
                 std::invalid_argument);
  }
  {
    ShardedEngineOptions options;
    options.shards = 1;
    options.shard_threads = -1;
    options.engine = s.options;
    EXPECT_THROW(ShardedEngine(s.platform, factory_for("LS"), options),
                 std::invalid_argument);
  }
  {
    ShardedEngineOptions options;
    options.shards = 1;
    options.engine = s.options;
    ShardedEngine engine(s.platform, factory_for("LS"), options);
    engine.load(s.workload);
    EXPECT_THROW(engine.load(s.workload), std::logic_error);
    engine.run_to_completion();
    EXPECT_THROW(engine.run_to_completion(), std::logic_error);
  }
}

TEST(ShardRoutingNames, RoundTripAndReject) {
  for (const ShardRouting r :
       {ShardRouting::kHash, ShardRouting::kRoundRobin,
        ShardRouting::kLeastLoaded}) {
    EXPECT_EQ(parse_shard_routing(to_string(r)), r);
  }
  EXPECT_THROW(parse_shard_routing("random"), std::invalid_argument);
}

}  // namespace
}  // namespace msol::core

// ------------------------------------------------------------- runner level --

namespace msol::runner {
namespace {

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Small grid whose every cell simulates its fleet as 2 one-port clusters.
ScenarioGrid sharded_grid() {
  ScenarioGrid grid;
  grid.name = "sharded";
  grid.seed = 23;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {"SRPT", "LS"};
  grid.classes = {platform::PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {4};
  grid.arrivals = {experiments::ArrivalProcess::kAllAtZero,
                   experiments::ArrivalProcess::kPoisson};
  grid.loads = {0.9};
  grid.jitters = {0.0, 0.1};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.engine_shards = 2;
  grid.shard_routing = "least-loaded";  // the state-dependent routing
  grid.shard_threads = 2;               // pooled shard advancement
  return grid;
}

class ShardedRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("msol_") + info->test_suite_name() + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path(const std::string& name) const {
    return dir_ / name;
  }

  std::pair<std::string, std::string> checkpointed_run(
      const ScenarioGrid& grid, const std::string& stem, int threads,
      ResultSink* extra = nullptr, bool resume = false) {
    CheckpointOptions options;
    options.csv_path = path(stem + ".csv").string();
    options.jsonl_path = path(stem + ".jsonl").string();
    options.manifest_path = path(stem + ".manifest").string();
    options.runner.threads = threads;
    options.resume = resume;
    if (extra != nullptr) options.extra_sinks.push_back(extra);
    run_checkpointed(grid, options);
    return {read_all(path(stem + ".csv")), read_all(path(stem + ".jsonl"))};
  }

  std::filesystem::path dir_;
};

/// Throws after `cells_allowed` durable commits — a process kill right
/// after the data sinks flushed but with cells still outstanding.
class KillAfterCells : public ResultSink {
 public:
  explicit KillAfterCells(std::size_t cells_allowed)
      : cells_allowed_(cells_allowed) {}
  void consume(const ResultRecord&) override {}
  void cell_complete(std::size_t, std::size_t) override {
    if (++seen_ > cells_allowed_) throw std::runtime_error("simulated kill");
  }

 private:
  std::size_t cells_allowed_;
  std::size_t seen_ = 0;
};

TEST_F(ShardedRunnerTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = sharded_grid();
  const auto [csv1, jsonl1] = checkpointed_run(grid, "t1", 1);
  const auto [csv4, jsonl4] = checkpointed_run(grid, "t4", 4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
  // The sharded cells really went through the sharded path: every data row
  // carries the trailing engine_shards,shard_threads columns.
  std::istringstream lines(csv1);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const std::string tail = ",engine_shards,shard_threads";
  ASSERT_GE(line.size(), tail.size());
  EXPECT_EQ(line.rfind(tail), line.size() - tail.size());
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind(",2,2"), line.size() - 4) << line;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(ShardedRunnerTest, ShardThreadsOnlyChangesItsEchoColumn) {
  // The same grid at shard_threads 1 and 4 must produce identical results;
  // only the trailing echo column may differ.
  ScenarioGrid grid = sharded_grid();
  grid.shard_threads = 1;
  const auto [csv1, jsonl1] = checkpointed_run(grid, "st1", 2);
  grid.shard_threads = 4;
  const auto [csv4, jsonl4] = checkpointed_run(grid, "st4", 2);

  const auto strip_last_csv_field = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, out;
    while (std::getline(lines, line)) {
      out += line.substr(0, line.rfind(','));
      out += '\n';
    }
    return out;
  };
  const auto strip_shard_threads_json = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, out;
    while (std::getline(lines, line)) {
      const std::size_t at = line.rfind(",\"shard_threads\":");
      EXPECT_NE(at, std::string::npos) << line;
      out += line.substr(0, at);
      out += '\n';
    }
    return out;
  };
  EXPECT_NE(csv1, csv4);  // the echo column does differ...
  EXPECT_EQ(strip_last_csv_field(csv1), strip_last_csv_field(csv4));
  EXPECT_EQ(strip_shard_threads_json(jsonl1), strip_shard_threads_json(jsonl4));
}

TEST_F(ShardedRunnerTest, KillAndResumeReproducesUninterruptedRun) {
  const ScenarioGrid grid = sharded_grid();
  const auto [ref_csv, ref_jsonl] = checkpointed_run(grid, "ref", 2);

  KillAfterCells killer(2);
  EXPECT_THROW(checkpointed_run(grid, "out", 2, &killer),
               std::runtime_error);
  // Resume completes the remaining cells; the bytes must match an
  // uninterrupted run exactly.
  const auto [csv, jsonl] =
      checkpointed_run(grid, "out", 2, nullptr, /*resume=*/true);
  EXPECT_EQ(csv, ref_csv);
  EXPECT_EQ(jsonl, ref_jsonl);
}

TEST_F(ShardedRunnerTest, ShardedGridRoundTripsThroughTextFormat) {
  const ScenarioGrid grid = sharded_grid();
  const std::string text = serialize_grid(grid);
  EXPECT_NE(text.find("engine_shards = 2"), std::string::npos);
  EXPECT_NE(text.find("shard_routing = least-loaded"), std::string::npos);
  EXPECT_NE(text.find("shard_threads = 2"), std::string::npos);
  const ScenarioGrid parsed = parse_grid(text);
  EXPECT_EQ(parsed.engine_shards, 2);
  EXPECT_EQ(parsed.shard_routing, "least-loaded");
  EXPECT_EQ(parsed.shard_threads, 2);
  // Defaults serialize to nothing: legacy canonical text is unchanged.
  ScenarioGrid defaults = grid;
  defaults.engine_shards = 1;
  defaults.shard_routing = "hash";
  defaults.shard_threads = 1;
  const std::string legacy = serialize_grid(defaults);
  EXPECT_EQ(legacy.find("engine_shards"), std::string::npos);
  EXPECT_EQ(legacy.find("shard_routing"), std::string::npos);
  EXPECT_EQ(legacy.find("shard_threads"), std::string::npos);
}

}  // namespace
}  // namespace msol::runner
