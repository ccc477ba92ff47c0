// msol_trace — the benchmark's tracer.
//
//   msol_trace GRID --threads N --seconds S --csv OUT --runner-csv OUT
//   msol_trace --host
//
// Runs the cells of an msol_run grid in repetitions until S seconds have
// passed (at least one), each repetition in two phases whose order
// alternates between repetitions:
//
//  * runner phase — the real runner::ParallelRunner at N threads, with the
//    CsvSink and ManifestSink behind a forwarding sink that times them, and
//    a progress callback that records which thread finished a cell when;
//  * traced phase — every cell rebuilt from the public calls msol_run's
//    campaign makes (PlatformGenerator, Workload::*, generate_availability,
//    simulate / ShardedEngine, validate_or_throw), on a util::ThreadPool of
//    the same width, each call timed and every scheduler wrapped in a
//    decide()-timing decorator. Its CSV must byte-match msol_run's for the
//    same grid, which is what shows it measures the same program.
//
// Then one diagnostics pass on the first platform of the first sharded cell
// (else of the first cell): the route / advance / merge split of
// ShardedEngine when the cell is sharded, an EventQueue replay of the
// schedule's completions, and rank-kernel probes on the platform's slave
// arrays.
//
// Prints one JSON object: host, reps, checks (each must be true), metrics
// and zero_reasons (metric-name prefix -> why that layer reads zero here).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/rank_kernel.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "core/workload.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace msol;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) /
         2.0;
}

/// Lower-interpolation quantile (the sample at floor(q * (n - 1))).
template <typename T>
double quantile(std::vector<T>& values, double q) {
  const std::size_t idx =
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return static_cast<double>(values[idx]);
}

/// The highest whole percentile in [50, 99] that still has at least ten
/// samples above it (the median when there are too few samples for that).
double tail_quantile(std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (int pct = 99; pct > 50; --pct) {
    const double idx = std::floor(pct / 100.0 * (n - 1.0));
    if (n - (idx + 1.0) >= 10.0) return quantile(values, pct / 100.0);
  }
  return quantile(values, 0.5);
}

// ------------------------------------------------------ decide() decorator --

/// Per-scheduler-instance decide() accounting. Each instance is touched by
/// one thread only (sharded cells build one scheduler per shard), so the
/// decorator needs no locking; instances are merged afterwards.
struct DecideStats {
  std::vector<std::uint32_t> ns;  ///< one latency sample per consult
  long long total_ns = 0;
  long long assigns = 0;

  void merge(const DecideStats& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
    total_ns += other.total_ns;
    assigns += other.assigns;
  }
};

/// Forwards every OnlineScheduler call to the registry's scheduler and
/// times decide().
class TimedScheduler final : public core::OnlineScheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<core::OnlineScheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  core::Decision decide(const core::EngineView& engine) override {
    const Clock::time_point start = Clock::now();
    core::Decision decision = inner_->decide(engine);
    const long long ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start)
                             .count();
    stats_.ns.push_back(static_cast<std::uint32_t>(std::min<long long>(
        ns, std::numeric_limits<std::uint32_t>::max())));
    stats_.total_ns += ns;
    if (std::holds_alternative<core::Assign>(decision)) ++stats_.assigns;
    return decision;
  }

  void on_task_released(const core::EngineView& engine,
                        core::TaskId task) override {
    inner_->on_task_released(engine, task);
  }

  void reset() override { inner_->reset(); }

  const core::OnlineScheduler& inner() const { return *inner_; }
  const DecideStats& stats() const { return stats_; }

 private:
  std::unique_ptr<core::OnlineScheduler> inner_;
  DecideStats stats_;
};

std::unique_ptr<TimedScheduler> make_timed(const std::string& name,
                                           int lookahead) {
  return std::make_unique<TimedScheduler>(
      algorithms::make_scheduler(name, lookahead));
}

/// Metric-name key of a scheduler: the registry name, or portfolio<k> /
/// hedge for the meta specs (whose spec strings are not metric names).
std::string algorithm_key(const core::OnlineScheduler& inner,
                          const std::string& name) {
  if (const auto* p =
          dynamic_cast<const algorithms::meta::PortfolioPolicy*>(&inner)) {
    return "portfolio" + std::to_string(p->spec().members.size());
  }
  if (dynamic_cast<const algorithms::meta::HedgePolicy*>(&inner) != nullptr) {
    return "hedge";
  }
  return name;
}

// ------------------------------------------------------ traced campaign ----

/// Everything one repetition's traced phase records, per cell and then
/// merged. Times are seconds unless the name says otherwise.
struct LayerTrace {
  double campaign_s = 0.0;
  double children_s = 0.0;  ///< the timed calls below, inside campaign_s
  std::vector<double> generate_us;
  std::vector<double> workload_ms;
  std::vector<double> availability_ms;
  double simulate_s = 0.0;         ///< unsharded simulate() calls
  double simulate_decide_s = 0.0;  ///< decide() time inside them
  long long simulate_tasks = 0;
  long long tasks = 0;  ///< workload tasks over every (platform, algorithm)
  long long consults = 0;
  long long assigns = 0;
  long long redispatches = 0;
  double validate_s = 0.0;
  long long validated_tasks = 0;
  std::map<std::string, DecideStats> decide;
  long long portfolio_decisions = 0;
  long long portfolio_rebuilds = 0;
  long long portfolio_memo_hits = 0;
  long long portfolio_member_evals = 0;
  long long meta_runs = 0;
  long long switches = 0;

  void merge(LayerTrace&& o) {
    campaign_s += o.campaign_s;
    children_s += o.children_s;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(generate_us, o.generate_us);
    append(workload_ms, o.workload_ms);
    append(availability_ms, o.availability_ms);
    simulate_s += o.simulate_s;
    simulate_decide_s += o.simulate_decide_s;
    simulate_tasks += o.simulate_tasks;
    tasks += o.tasks;
    consults += o.consults;
    assigns += o.assigns;
    redispatches += o.redispatches;
    validate_s += o.validate_s;
    validated_tasks += o.validated_tasks;
    for (auto& [key, stats] : o.decide) decide[key].merge(stats);
    portfolio_decisions += o.portfolio_decisions;
    portfolio_rebuilds += o.portfolio_rebuilds;
    portfolio_memo_hits += o.portfolio_memo_hits;
    portfolio_member_evals += o.portfolio_member_evals;
    meta_runs += o.meta_runs;
    switches += o.switches;
  }

  /// Folds one finished scheduler instance into the trace.
  void absorb(const TimedScheduler& scheduler, const std::string& name) {
    const DecideStats& stats = scheduler.stats();
    consults += static_cast<long long>(stats.ns.size());
    assigns += stats.assigns;
    decide[algorithm_key(scheduler.inner(), name)].merge(stats);
    const auto* meta = dynamic_cast<const algorithms::meta::MetaPolicy*>(
        &scheduler.inner());
    if (meta == nullptr) return;
    ++meta_runs;
    switches += meta->switches();
    const auto* portfolio =
        dynamic_cast<const algorithms::meta::PortfolioPolicy*>(meta);
    if (portfolio != nullptr && portfolio->projection() != nullptr) {
      portfolio_decisions += portfolio->decisions();
      portfolio_rebuilds += portfolio->projection()->rebuilds();
      portfolio_memo_hits += portfolio->memo_hits();
      portfolio_member_evals +=
          portfolio->decisions() *
          static_cast<long long>(portfolio->spec().members.size());
    }
  }
};

// The three helpers below restate experiments/campaign.cpp's internal
// make_arrivals / shape_workload / make_engine_options call for call, so
// that each public call can be timed on its own. The byte-match of the
// traced CSV against msol_run's is what keeps them faithful.

core::Workload make_arrivals(const experiments::CampaignConfig& config,
                             const platform::Platform& plat, util::Rng& rng) {
  using experiments::ArrivalProcess;
  const double rate = config.load * experiments::max_throughput(plat);
  switch (config.arrival) {
    case ArrivalProcess::kAllAtZero:
      return core::Workload::all_at_zero(config.num_tasks);
    case ArrivalProcess::kPoisson:
      return core::Workload::poisson(config.num_tasks, rate, rng);
    case ArrivalProcess::kBursty: {
      const int burst = 25;
      return core::Workload::bursty(config.num_tasks, burst,
                                    static_cast<double>(burst) / rate, rng);
    }
    case ArrivalProcess::kInhomogeneous:
      return core::Workload::inhomogeneous_poisson(
          config.num_tasks, rate, config.ipp_amplitude,
          config.ipp_period_tasks / rate, rng);
  }
  throw std::logic_error("make_arrivals: unknown arrival process");
}

core::Workload shape_workload(const experiments::CampaignConfig& config,
                              core::Workload workload, util::Rng& rng) {
  using experiments::TaskSizeMix;
  switch (config.size_mix) {
    case TaskSizeMix::kUnit:
      break;
    case TaskSizeMix::kPareto:
      workload = workload.with_pareto_sizes(1.5, 20.0, rng);
      break;
    case TaskSizeMix::kLognormal:
      workload = workload.with_lognormal_noise(0.4, 0.4, rng);
      break;
  }
  if (config.size_jitter > 0.0) {
    workload = workload.with_size_jitter(config.size_jitter, rng);
  }
  return workload;
}

/// One platform repetition's inputs, as run_campaign draws them.
struct RepInputs {
  platform::Platform plat;
  core::Workload workload;
  core::EngineOptions options;
};

RepInputs make_rep_inputs(const experiments::CampaignConfig& config,
                          util::Rng& rep_rng, LayerTrace& trace) {
  const platform::PlatformGenerator generator(config.ranges);
  Clock::time_point start = Clock::now();
  platform::Platform plat =
      generator.generate(config.platform_class, config.num_slaves, rep_rng);
  double elapsed = seconds_since(start);
  trace.generate_us.push_back(elapsed * 1e6);
  trace.children_s += elapsed;

  start = Clock::now();
  core::Workload workload =
      shape_workload(config, make_arrivals(config, plat, rep_rng), rep_rng);
  elapsed = seconds_since(start);
  trace.workload_ms.push_back(elapsed * 1e3);
  trace.children_s += elapsed;

  core::EngineOptions options;
  options.port_capacity = config.port_capacity;
  if (config.avail != platform::AvailabilityModel::kAlways) {
    const double rate = config.load * experiments::max_throughput(plat);
    const double mtbf = config.mtbf_tasks / rate;
    const core::Time horizon = 4.0 * config.num_tasks / rate;
    start = Clock::now();
    options.availability = platform::generate_availability(
        config.avail, config.num_slaves, mtbf, config.outage_frac, horizon,
        rep_rng);
    elapsed = seconds_since(start);
    trace.availability_ms.push_back(elapsed * 1e3);
    trace.children_s += elapsed;
  }
  return RepInputs{std::move(plat), std::move(workload), std::move(options)};
}

core::ShardedEngineOptions sharded_options(
    const experiments::CampaignConfig& config,
    const core::EngineOptions& engine, int shard_threads) {
  core::ShardedEngineOptions options;
  options.shards = config.engine_shards;
  options.routing = core::parse_shard_routing(config.shard_routing);
  options.shard_threads = shard_threads;
  options.engine = engine;
  return options;
}

struct RawValues {
  std::vector<double> makespan, max_flow, sum_flow;
  std::vector<double> norm_makespan, norm_max_flow, norm_sum_flow;
  std::vector<double> redispatches, lost_work, switches;
};

/// run_campaign, rebuilt from the public calls with each one timed.
experiments::CampaignResult traced_campaign(
    const experiments::CampaignConfig& config, LayerTrace& trace) {
  const Clock::time_point campaign_start = Clock::now();
  const std::vector<std::string> names =
      config.algorithms.empty() ? algorithms::paper_algorithm_names()
                                : config.algorithms;
  util::Rng rng(config.seed);
  std::map<std::string, RawValues> raw;

  for (int rep = 0; rep < config.num_platforms; ++rep) {
    util::Rng rep_rng = rng.fork();
    const RepInputs in = make_rep_inputs(config, rep_rng, trace);

    std::map<std::string, core::Schedule> schedules;
    std::map<std::string, core::DisruptionStats> disruptions;
    for (const std::string& name : names) {
      core::Schedule schedule;
      core::DisruptionStats disruption;
      double switches = 0.0;
      if (config.engine_shards <= 1) {
        const std::unique_ptr<TimedScheduler> scheduler =
            make_timed(name, config.lookahead);
        Clock::time_point start = Clock::now();
        schedule = core::simulate(in.plat, in.workload, *scheduler, in.options,
                                  &disruption);
        const double sim_s = seconds_since(start);
        trace.simulate_s += sim_s;
        trace.simulate_decide_s += scheduler->stats().total_ns * 1e-9;
        trace.simulate_tasks += in.workload.size();
        trace.children_s += sim_s;

        start = Clock::now();
        core::validate_or_throw(in.plat, in.workload, schedule, in.options);
        const double val_s = seconds_since(start);
        trace.validate_s += val_s;
        trace.validated_tasks += in.workload.size();
        trace.children_s += val_s;

        trace.absorb(*scheduler, name);
        const auto* meta = dynamic_cast<const algorithms::meta::MetaPolicy*>(
            &scheduler->inner());
        if (meta != nullptr) switches = static_cast<double>(meta->switches());
      } else {
        Clock::time_point start = Clock::now();
        core::ShardedEngine sharded(
            in.plat, [&] { return make_timed(name, config.lookahead); },
            sharded_options(config, in.options, config.shard_threads));
        sharded.load(in.workload);
        sharded.run_to_completion();
        trace.children_s += seconds_since(start);
        for (int k = 0; k < sharded.num_shards(); ++k) {
          const core::Workload shard_workload = sharded.shard_workload(k);
          start = Clock::now();
          core::validate_or_throw(sharded.partition().shard_platform(k),
                                  shard_workload,
                                  sharded.shard_engine(k).schedule(),
                                  sharded.shard_options(k));
          const double val_s = seconds_since(start);
          trace.validate_s += val_s;
          trace.validated_tasks += shard_workload.size();
          trace.children_s += val_s;
          const auto& scheduler =
              static_cast<const TimedScheduler&>(sharded.shard_scheduler(k));
          trace.absorb(scheduler, name);
          const auto* meta =
              dynamic_cast<const algorithms::meta::MetaPolicy*>(
                  &scheduler.inner());
          if (meta != nullptr) switches += static_cast<double>(meta->switches());
        }
        schedule = sharded.schedule();
        disruption = sharded.disruption();
      }
      trace.tasks += in.workload.size();
      trace.redispatches += disruption.redispatches;
      schedules.emplace(name, std::move(schedule));
      disruptions.emplace(name, disruption);
      raw[name].switches.push_back(switches);
    }

    const core::Schedule* srpt = nullptr;
    const auto it = schedules.find("SRPT");
    if (it != schedules.end()) srpt = &it->second;
    for (const std::string& name : names) {
      const core::Schedule& s = schedules.at(name);
      const core::DisruptionStats& d = disruptions.at(name);
      RawValues& values = raw[name];
      values.makespan.push_back(s.makespan());
      values.max_flow.push_back(s.max_flow());
      values.sum_flow.push_back(s.sum_flow());
      values.redispatches.push_back(static_cast<double>(d.redispatches));
      values.lost_work.push_back(d.lost_work);
      if (srpt != nullptr) {
        values.norm_makespan.push_back(s.makespan() / srpt->makespan());
        values.norm_max_flow.push_back(s.max_flow() / srpt->max_flow());
        values.norm_sum_flow.push_back(s.sum_flow() / srpt->sum_flow());
      }
    }
  }

  experiments::CampaignResult result;
  result.config = config;
  for (const std::string& name : names) {
    const RawValues& values = raw.at(name);
    experiments::AlgorithmResult r;
    r.name = name;
    r.spec = algorithms::canonical_spec(name, config.lookahead);
    r.makespan = util::summarize(values.makespan);
    r.max_flow = util::summarize(values.max_flow);
    r.sum_flow = util::summarize(values.sum_flow);
    r.norm_makespan = util::summarize(values.norm_makespan);
    r.norm_max_flow = util::summarize(values.norm_max_flow);
    r.norm_sum_flow = util::summarize(values.norm_sum_flow);
    r.redispatches = util::summarize(values.redispatches);
    r.lost_work = util::summarize(values.lost_work);
    r.switches = util::summarize(values.switches);
    r.makespan_raw = values.makespan;
    r.max_flow_raw = values.max_flow;
    r.sum_flow_raw = values.sum_flow;
    result.algorithms.push_back(std::move(r));
  }
  trace.campaign_s += seconds_since(campaign_start);
  return result;
}

runner::ResultRecord make_record(const runner::ScenarioSpec& cell,
                                 const experiments::AlgorithmResult& result) {
  runner::ResultRecord record;
  record.cell_index = cell.index;
  record.cell_id = cell.id;
  record.cell_seed = cell.config.seed;
  record.platform_class = cell.config.platform_class;
  record.num_slaves = cell.config.num_slaves;
  record.arrival = cell.config.arrival;
  record.load = cell.config.load;
  record.size_jitter = cell.config.size_jitter;
  record.port_capacity = cell.config.port_capacity;
  record.size_mix = cell.config.size_mix;
  record.avail = cell.config.avail;
  record.mtbf_tasks = cell.config.mtbf_tasks;
  record.outage_frac = cell.config.outage_frac;
  record.engine_shards = cell.config.engine_shards;
  record.shard_threads = cell.config.shard_threads;
  record.result = result;
  return record;
}

int pool_width(int threads, std::size_t cells) {
  const int t = threads > 0
                    ? threads
                    : static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, std::min(t, static_cast<int>(std::max<std::size_t>(
                                     cells, 1))));
}

struct TracedRep {
  LayerTrace trace;
  double wall_s = 0.0;
};

/// The traced phase: every cell on a pool of the runner's width, cells
/// claimed in index order, then the records written in cell order.
TracedRep run_traced_phase(const std::vector<runner::ScenarioSpec>& cells,
                           int threads, const std::string& csv_path) {
  const Clock::time_point start = Clock::now();
  std::vector<experiments::CampaignResult> results(cells.size());
  std::vector<LayerTrace> traces(cells.size());
  {
    util::ThreadPool pool(pool_width(threads, cells.size()));
    pool.run(cells.size(), [&](std::size_t i) {
      results[i] = traced_campaign(cells[i].config, traces[i]);
    });
  }
  std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
  runner::CsvSink sink(out);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const experiments::AlgorithmResult& algorithm : results[i].algorithms) {
      sink.consume(make_record(cells[i], algorithm));
    }
  }
  sink.close();
  out.close();
  if (!out) throw std::runtime_error("cannot write " + csv_path);

  TracedRep rep;
  rep.wall_s = seconds_since(start);
  for (LayerTrace& t : traces) rep.trace.merge(std::move(t));
  return rep;
}

// --------------------------------------------------------- runner phase ----

/// Forwards to another sink and accumulates the time spent inside it.
class TimedSink final : public runner::ResultSink {
 public:
  TimedSink(runner::ResultSink& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  void consume(const runner::ResultRecord& record) override {
    const Clock::time_point start = Clock::now();
    inner_.consume(record);
    seconds_ += seconds_since(start);
  }
  void cell_complete(std::size_t cell_index, std::size_t records) override {
    const Clock::time_point start = Clock::now();
    inner_.cell_complete(cell_index, records);
    seconds_ += seconds_since(start);
  }
  void close() override {
    const Clock::time_point start = Clock::now();
    inner_.close();
    seconds_ += seconds_since(start);
  }

 private:
  runner::ResultSink& inner_;
  double& seconds_;
};

struct RunnerRep {
  std::vector<double> cell_s;
  double tail_idle_s = 0.0;
  double sink_s = 0.0;
  std::size_t records = 0;
  double wall_s = 0.0;
};

RunnerRep run_runner_phase(const std::vector<runner::ScenarioSpec>& cells,
                           int threads, const std::string& csv_path) {
  std::ofstream csv(csv_path, std::ios::binary | std::ios::trunc);
  std::ofstream manifest(csv_path + ".manifest",
                         std::ios::binary | std::ios::trunc);
  runner::CsvSink csv_sink(csv);
  runner::ManifestSink manifest_sink(manifest);
  RunnerRep rep;
  TimedSink timed_csv(csv_sink, rep.sink_s);
  TimedSink timed_manifest(manifest_sink, rep.sink_s);

  // The progress callback runs under the runner's emission lock on the
  // thread that finished the cell, so consecutive instants of one thread
  // bracket that thread's cells.
  std::vector<std::pair<std::thread::id, Clock::time_point>> instants;
  runner::RunnerOptions options;
  options.threads = threads;
  options.progress = [&](std::size_t, std::size_t) {
    instants.emplace_back(std::this_thread::get_id(), Clock::now());
  };
  const Clock::time_point start = Clock::now();
  const runner::RunReport report = runner::ParallelRunner(options).run_cells(
      cells, {&timed_csv, &timed_manifest});
  const Clock::time_point end = Clock::now();
  csv.close();
  manifest.close();
  if (!csv || !manifest) throw std::runtime_error("cannot write " + csv_path);

  std::map<std::thread::id, Clock::time_point> last;
  for (const auto& [thread, instant] : instants) {
    const auto it = last.find(thread);
    const Clock::time_point from = it == last.end() ? start : it->second;
    rep.cell_s.push_back(std::chrono::duration<double>(instant - from).count());
    last[thread] = instant;
  }
  // A worker finds no unclaimed cell right after its last completion; a
  // worker that never completed one found none at the start.
  Clock::time_point first_idle = end;
  for (const auto& [thread, instant] : last) {
    first_idle = std::min(first_idle, instant);
  }
  if (static_cast<int>(last.size()) < pool_width(threads, cells.size())) {
    first_idle = start;
  }
  rep.tail_idle_s = std::chrono::duration<double>(end - first_idle).count();
  rep.records = report.records;
  rep.wall_s = std::chrono::duration<double>(end - start).count();
  return rep;
}

// ---------------------------------------------- sharded-cell diagnostics ----

struct ShardedDiagnostics {
  double route_s = 0.0;
  double advance_s_max = 0.0;
  double advance_s_sum = 0.0;
  double one_thread_s = 0.0;
  double threaded_s = 0.0;
  double imbalance = 0.0;
  double decide_s = 0.0;  ///< decide() time inside the standalone advances
  long long tasks = 0;
};

/// Times one algorithm's sharded run three ways, medians of `reps` each:
/// load (routing), run_to_completion at one thread and at the cell's
/// shard_threads, and each shard's OnePortEngine run alone on its slice.
ShardedDiagnostics diagnose_sharded(const experiments::CampaignConfig& config,
                                    const RepInputs& in,
                                    const std::string& name, int reps,
                                    std::map<std::string, bool>& checks) {
  ShardedDiagnostics diag;
  std::vector<double> route, one_thread, threaded, adv_max, adv_sum, decide;
  for (int r = 0; r < reps; ++r) {
    const auto factory = [&] { return make_timed(name, config.lookahead); };
    core::ShardedEngine single(in.plat, factory,
                               sharded_options(config, in.options, 1));
    Clock::time_point start = Clock::now();
    single.load(in.workload);
    route.push_back(seconds_since(start));
    start = Clock::now();
    single.run_to_completion();
    one_thread.push_back(seconds_since(start));

    core::ShardedEngine parallel(
        in.plat, factory,
        sharded_options(config, in.options, config.shard_threads));
    start = Clock::now();
    parallel.load(in.workload);
    parallel.run_to_completion();
    threaded.push_back(seconds_since(start));

    double max_s = 0.0;
    double sum_s = 0.0;
    double decide_s = 0.0;
    std::vector<double> shard_tasks;
    bool same = true;
    for (int k = 0; k < single.num_shards(); ++k) {
      const core::Workload workload = single.shard_workload(k);
      const std::unique_ptr<TimedScheduler> scheduler = factory();
      core::OnePortEngine engine(single.partition().shard_platform(k),
                                 *scheduler, single.shard_options(k));
      engine.load(workload);
      start = Clock::now();
      engine.run_to_completion();
      const double s = seconds_since(start);
      max_s = std::max(max_s, s);
      sum_s += s;
      decide_s += scheduler->stats().total_ns * 1e-9;
      shard_tasks.push_back(static_cast<double>(workload.size()));
      const auto& mine = engine.schedule().records();
      const auto& theirs = single.shard_engine(k).schedule().records();
      same = same && mine.size() == theirs.size() &&
             std::equal(mine.begin(), mine.end(), theirs.begin(),
                        [](const core::TaskRecord& a,
                           const core::TaskRecord& b) {
                          return a.task == b.task && a.slave == b.slave &&
                                 a.comp_end == b.comp_end;
                        });
    }
    const auto [it, fresh] =
        checks.emplace("standalone_shards_match_sharded_engine", same);
    if (!fresh) it->second = it->second && same;
    adv_max.push_back(max_s);
    adv_sum.push_back(sum_s);
    decide.push_back(decide_s);
    const double mean_tasks =
        static_cast<double>(in.workload.size()) / single.num_shards();
    diag.imbalance =
        *std::max_element(shard_tasks.begin(), shard_tasks.end()) / mean_tasks;
  }
  diag.route_s = median(route);
  diag.one_thread_s = median(one_thread);
  diag.threaded_s = median(threaded);
  diag.advance_s_max = median(adv_max);
  diag.advance_s_sum = median(adv_sum);
  diag.decide_s = median(decide);
  diag.tasks = in.workload.size();
  return diag;
}

/// Replays a schedule's completions through an EventQueue the way the
/// engine drives it: records in send_start order, each completion pushed
/// at its send_start keyed by comp_end, every entry due by then popped
/// first. Returns median ns per push-or-pop over `reps` timed replays and
/// stores the pop order of the last one.
double replay_queue(core::EventQueueImpl impl,
                    const std::vector<core::TaskRecord>& by_send, int reps,
                    std::vector<core::Time>& popped) {
  core::EventQueue queue(impl);
  std::vector<double> ns_per_op;
  for (int r = 0; r < reps; ++r) {
    queue.configure(impl);
    popped.clear();
    const Clock::time_point start = Clock::now();
    for (const core::TaskRecord& record : by_send) {
      while (!queue.empty() && queue.top().time <= record.send_start) {
        popped.push_back(queue.top().time);
        queue.pop();
      }
      queue.push(record.comp_end, core::EventKind::kCompletion);
    }
    while (!queue.empty()) {
      popped.push_back(queue.top().time);
      queue.pop();
    }
    ns_per_op.push_back(seconds_since(start) * 1e9 /
                        (2.0 * static_cast<double>(by_send.size())));
  }
  return median(ns_per_op);
}

/// Mprobe/s of completion_batch_width(width) on `view`, one batch per task
/// of the workload (cycled), median of `reps` timed sweeps.
double probe_rate(core::RankKernelWidth width, const core::SlaveStateView& view,
                  core::Time now, const core::Workload& workload, int reps,
                  std::vector<core::Time>& out) {
  out.assign(static_cast<std::size_t>(view.m), 0.0);
  const int calls = std::max(1, 4'000'000 / view.m);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < calls; ++c) {
      const core::TaskSpec& task = workload.at(c % workload.size());
      core::completion_batch_width(width, view, now, now, task.comm_factor,
                                   task.comp_factor, out.data());
    }
    rates.push_back(static_cast<double>(calls) * view.m /
                    seconds_since(start) / 1e6);
  }
  return median(rates);
}

// ------------------------------------------------------------ reporting ----

struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> zero_reasons;
  std::map<std::string, bool> checks;
};

void print_json(const Report& report, int reps) {
  std::ostringstream os;
  os << "{\"reps\":" << reps << ",\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : report.checks) {
    os << (first ? "" : ",") << '"' << name << "\":" << (ok ? "true" : "false");
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [name, value] : report.metrics) {
    os << (first ? "" : ",") << '"' << name << "\":" << util::fmt_exact(value);
    first = false;
  }
  os << "},\"zero_reasons\":{";
  first = true;
  for (const auto& [prefix, reason] : report.zero_reasons) {
    os << (first ? "" : ",") << '"' << prefix << "\":\"" << reason << '"';
    first = false;
  }
  os << "}}\n";
  std::cout << os.str();
}

void print_host() {
  std::cout << "{\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"avx2\":"
            << (core::rank_kernel_simd_available() ? "true" : "false")
            << ",\"avx512\":"
            << (core::rank_kernel_avx512_available() ? "true" : "false")
            << ",\"compiler\":\"" << MSOL_BENCH_COMPILER
            << "\",\"build_type\":\"" << MSOL_BENCH_BUILD_TYPE << "\"}\n";
}

/// Per-repetition metrics of the runner + traced phases.
std::map<std::string, double> rep_metrics(const RunnerRep& runner,
                                          TracedRep& traced) {
  std::map<std::string, double> m;
  LayerTrace& t = traced.trace;
  m["runner.tail_idle_s"] = runner.tail_idle_s;
  m["runner.sink_us_per_record"] =
      runner.sink_s * 1e6 / static_cast<double>(std::max<std::size_t>(
                                runner.records, 1));
  m["experiments.self_s"] = t.campaign_s - t.children_s;
  m["platform.generate_us"] = median(t.generate_us);
  m["core.workload.generate_ms"] = median(t.workload_ms);
  if (!t.availability_ms.empty()) {
    m["platform.availability_ms"] = median(t.availability_ms);
  }
  if (t.simulate_tasks > 0) {
    m["core.engine.self_ns_per_task"] =
        (t.simulate_s - t.simulate_decide_s) * 1e9 / t.simulate_tasks;
    m["algorithms.decide_share"] = t.simulate_decide_s / t.simulate_s;
  }
  m["core.engine.consults_per_task"] =
      static_cast<double>(t.consults) / t.tasks;
  m["core.engine.assign_ratio"] =
      static_cast<double>(t.assigns) / std::max<long long>(t.consults, 1);
  m["core.engine.redispatches_per_task"] =
      static_cast<double>(t.redispatches) / t.tasks;
  m["core.validator.ns_per_task"] =
      t.validate_s * 1e9 / std::max<long long>(t.validated_tasks, 1);
  for (auto& [key, stats] : t.decide) {
    const std::string base = "algorithms." + key + ".decide_";
    m[base + "n"] = static_cast<double>(stats.ns.size());
    if (stats.ns.empty()) continue;
    m[base + "ns_mean"] =
        static_cast<double>(stats.total_ns) / static_cast<double>(stats.ns.size());
    m[base + "ns_p50"] = quantile(stats.ns, 0.50);
    m[base + "ns_p99"] = quantile(stats.ns, 0.99);
    std::vector<std::uint32_t>().swap(stats.ns);
  }
  if (t.meta_runs > 0) {
    m["algorithms.meta.switches"] = static_cast<double>(t.switches);
  }
  if (t.portfolio_decisions > 0) {
    m["algorithms.meta.rebuilds_per_decision"] =
        static_cast<double>(t.portfolio_rebuilds) / t.portfolio_decisions;
    m["algorithms.meta.memo_hit_ratio"] =
        static_cast<double>(t.portfolio_memo_hits) / t.portfolio_member_evals;
  }
  m["trace.overhead_frac"] = 1.0 - runner.wall_s / traced.wall_s;
  return m;
}

RepInputs first_rep_inputs(const experiments::CampaignConfig& config) {
  util::Rng rng(config.seed);
  util::Rng rep_rng = rng.fork();
  LayerTrace unused;
  return make_rep_inputs(config, rep_rng, unused);
}

/// The route / advance / merge split of a sharded cell's first platform,
/// summed over its algorithms.
void diagnose_sharding(const experiments::CampaignConfig& config,
                       const std::vector<std::string>& names, Report& report) {
  const RepInputs in = first_rep_inputs(config);
  double route = 0.0, adv_max = 0.0, adv_sum = 0.0, one = 0.0, par = 0.0,
         decide = 0.0, imbalance = 0.0;
  long long tasks = 0;
  for (const std::string& name : names) {
    const ShardedDiagnostics d =
        diagnose_sharded(config, in, name, 3, report.checks);
    route += d.route_s;
    adv_max += d.advance_s_max;
    adv_sum += d.advance_s_sum;
    one += d.one_thread_s;
    par += d.threaded_s;
    decide += d.decide_s;
    tasks += d.tasks;
    imbalance = std::max(imbalance, d.imbalance);
  }
  auto& m = report.metrics;
  m["core.sharded_engine.route_s"] = route;
  m["core.sharded_engine.advance_s_max"] = adv_max;
  m["core.sharded_engine.advance_s_sum"] = adv_sum;
  m["core.sharded_engine.merge_s"] = one - adv_sum;
  m["core.sharded_engine.imbalance"] = imbalance;
  m["core.sharded_engine.thread_speedup"] = one / par;
  if (m.count("core.engine.self_ns_per_task") == 0) {
    m["core.engine.self_ns_per_task"] = (adv_sum - decide) * 1e9 / tasks;
    m["algorithms.decide_share"] = decide / adv_sum;
  }
}

/// EventQueue replay and rank-kernel probes fed by one cell's own first
/// platform and the schedule its first algorithm produces there (merged
/// over shards when the cell is sharded).
void probe_queue_and_kernel(const experiments::CampaignConfig& config,
                            const std::string& name, Report& report) {
  const RepInputs in = first_rep_inputs(config);
  const auto scheduler = [&] {
    return algorithms::make_scheduler(name, config.lookahead);
  };
  core::ShardedEngine sharded(
      in.plat, scheduler,
      sharded_options(config, in.options, config.shard_threads));
  sharded.load(in.workload);
  sharded.run_to_completion();

  std::vector<core::TaskRecord> by_send = sharded.schedule().records();
  std::stable_sort(by_send.begin(), by_send.end(),
                   [](const core::TaskRecord& a, const core::TaskRecord& b) {
                     return a.send_start < b.send_start;
                   });
  std::vector<core::Time> expected;
  for (const core::TaskRecord& r : by_send) expected.push_back(r.comp_end);
  std::sort(expected.begin(), expected.end());
  // Small schedules replay many times so each timing spans ~10^6 ops.
  const int reps = static_cast<int>(
      std::clamp<std::size_t>(2'000'000 / (2 * by_send.size()), 9, 999));
  std::vector<core::Time> popped;
  auto& m = report.metrics;
  m["core.event_queue.calendar_ns_per_op"] =
      replay_queue(core::EventQueueImpl::kCalendar, by_send, reps, popped);
  report.checks["event_queue_calendar_pops_in_completion_order"] =
      popped == expected;
  m["core.event_queue.heap_ns_per_op"] =
      replay_queue(core::EventQueueImpl::kHeap, by_send, reps, popped);
  report.checks["event_queue_heap_pops_in_completion_order"] =
      popped == expected;

  // Rank kernel on the platform's slave arrays, at one shard's width and at
  // the whole platform's (the same view on unsharded cells), with each
  // slave's final busy-until as its ready time and the median send instant
  // as "now".
  std::vector<core::Time> ready(static_cast<std::size_t>(in.plat.size()), 0.0);
  for (const core::TaskRecord& r : by_send) {
    core::Time& slot = ready[static_cast<std::size_t>(r.slave)];
    slot = std::max(slot, r.comp_end);
  }
  const core::Time now = by_send[by_send.size() / 2].send_start;
  std::vector<core::Time> shard_ready;
  for (core::SlaveId global : sharded.partition().shard_slaves(0)) {
    shard_ready.push_back(ready[static_cast<std::size_t>(global)]);
  }
  struct Probe {
    const char* suffix;
    const platform::Platform* plat;
    const std::vector<core::Time>* ready;
  };
  for (const Probe& probe :
       {Probe{"_shard", &sharded.partition().shard_platform(0), &shard_ready},
        Probe{"_platform", &in.plat, &ready}}) {
    core::SlaveStateView view;
    view.comm = probe.plat->comm_data();
    view.comp = probe.plat->comp_data();
    view.ready = probe.ready->data();
    view.m = probe.plat->size();
    std::vector<core::Time> dispatched, scalar;
    m[std::string("core.rank_kernel.mprobes_per_s") + probe.suffix] =
        probe_rate(core::RankKernelWidth::kAuto, view, now, in.workload, 5,
                   dispatched);
    m[std::string("core.rank_kernel.scalar_mprobes_per_s") + probe.suffix] =
        probe_rate(core::RankKernelWidth::kScalar, view, now, in.workload, 5,
                   scalar);
    report.checks[std::string("rank_kernel_dispatch_matches_scalar") +
                  probe.suffix] =
        std::memcmp(dispatched.data(), scalar.data(),
                    dispatched.size() * sizeof(core::Time)) == 0;
  }
}

int run(const util::Cli& cli) {
  if (cli.positional().size() != 1 || !cli.has("csv") ||
      !cli.has("runner-csv")) {
    std::cerr << "usage: msol_trace GRID --threads N --seconds S --csv OUT "
                 "--runner-csv OUT\n       msol_trace --host\n";
    return 2;
  }
  const runner::ScenarioGrid grid = runner::load_grid(cli.positional()[0]);
  const std::vector<runner::ScenarioSpec> cells = runner::expand(grid);
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const double budget_s = cli.get_double("seconds", 10.0);
  const std::string csv = cli.get("csv", "");
  const std::string runner_csv = cli.get("runner-csv", "");

  Report report;
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> cell_s;
  const Clock::time_point start = Clock::now();
  int reps = 0;
  do {
    // Alternate which phase runs first, so neither always meets warm caches.
    RunnerRep runner_rep;
    TracedRep traced_rep;
    if (reps % 2 == 0) {
      runner_rep = run_runner_phase(cells, threads, runner_csv);
      traced_rep = run_traced_phase(cells, threads, csv);
    } else {
      traced_rep = run_traced_phase(cells, threads, csv);
      runner_rep = run_runner_phase(cells, threads, runner_csv);
    }
    cell_s.insert(cell_s.end(), runner_rep.cell_s.begin(),
                  runner_rep.cell_s.end());
    for (const auto& [name, value] : rep_metrics(runner_rep, traced_rep)) {
      per_rep[name].push_back(value);
    }
    ++reps;
  } while (seconds_since(start) < budget_s);

  for (const auto& [name, values] : per_rep) {
    // Exact counts sum over repetitions; everything else is a median.
    report.metrics[name] =
        name.size() > 8 && name.compare(name.size() - 8, 8, "decide_n") == 0
            ? std::accumulate(values.begin(), values.end(), 0.0)
            : median(values);
  }
  report.metrics["runner.cell_s_n"] = static_cast<double>(cell_s.size());
  report.metrics["runner.cell_s_p50"] = quantile(cell_s, 0.5);
  report.metrics["runner.cell_s_ptail"] = tail_quantile(cell_s);

  // The layer probes use the first sharded cell, else the first cell.
  const std::vector<std::string> names =
      grid.algorithms.empty() ? algorithms::paper_algorithm_names()
                              : grid.algorithms;
  const auto sharded = std::find_if(
      cells.begin(), cells.end(), [](const runner::ScenarioSpec& cell) {
        return cell.config.engine_shards > 1;
      });
  if (sharded != cells.end()) {
    diagnose_sharding(sharded->config, names, report);
  } else {
    report.zero_reasons["core.sharded_engine."] =
        "no cell has engine_shards > 1, so msol_run never builds a "
        "ShardedEngine on this workload";
  }
  probe_queue_and_kernel(
      (sharded != cells.end() ? *sharded : cells.front()).config,
      names.front(), report);
  bool any_avail = false;
  for (const runner::ScenarioSpec& cell : cells) {
    any_avail = any_avail ||
                cell.config.avail != platform::AvailabilityModel::kAlways;
  }
  if (!any_avail) {
    report.zero_reasons["platform.availability_ms"] =
        "every cell has avail = always, so generate_availability is never "
        "called";
    report.zero_reasons["core.engine.redispatches_per_task"] =
        "every cell has avail = always, so no task is ever re-dispatched";
  }
  if (report.metrics.count("algorithms.meta.switches") == 0) {
    report.zero_reasons["algorithms.meta."] =
        "the grid runs no portfolio or hedge policy";
  } else if (report.metrics.count("algorithms.meta.memo_hit_ratio") == 0) {
    report.zero_reasons["algorithms.meta.rebuilds_per_decision"] =
        "the grid runs no portfolio policy";
    report.zero_reasons["algorithms.meta.memo_hit_ratio"] =
        "the grid runs no portfolio policy";
  }
  print_json(report, reps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv,
                        {"threads", "seconds", "csv", "runner-csv"});
    if (cli.has("host")) {
      print_host();
      return 0;
    }
    return run(cli);
  } catch (const std::exception& error) {
    std::cerr << "msol_trace: " << error.what() << "\n";
    return 1;
  }
}
