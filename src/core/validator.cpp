#include "core/validator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace msol::core {

namespace {

constexpr double kDurEps = 1e-6;  // duration checks (looser than event order)

void check_durations(const platform::Platform& platform,
                     const Workload& workload, const TaskRecord& r,
                     const EngineOptions& options,
                     const std::vector<platform::AvailabilityProfile>& profiles,
                     std::vector<std::string>& out) {
  // Message streams are built only inside the failing branches: this runs
  // once per record, and a valid schedule fails none of them.
  const TaskSpec& spec = workload.at(r.task);
  if (r.send_start < spec.release - kTimeEps) {
    std::ostringstream msg;
    msg << "task " << r.task << ": send starts at " << r.send_start
        << " before release " << spec.release;
    out.push_back(msg.str());
    return;
  }
  const Time want_send =
      platform.comm(r.slave) * spec.comm_factor;
  if (std::abs((r.send_end - r.send_start) - want_send) > kDurEps) {
    std::ostringstream msg;
    msg << "task " << r.task << ": send duration "
        << (r.send_end - r.send_start) << " != c_j*factor " << want_send;
    out.push_back(msg.str());
  }
  if (r.comp_start < r.send_end - kTimeEps) {
    std::ostringstream m2;
    m2 << "task " << r.task << ": computes at " << r.comp_start
       << " before arrival " << r.send_end;
    out.push_back(m2.str());
  }
  const double want_work =
      platform.comp(r.slave) * spec.comp_factor *
      slowdown_factor_at(options.slowdowns, r.slave, r.comp_start);
  const platform::AvailabilityProfile* profile =
      profiles.empty() ? nullptr
                       : &profiles[static_cast<std::size_t>(r.slave)];
  if (profile == nullptr || profile->trivial()) {
    if (std::abs((r.comp_end - r.comp_start) - want_work) > kDurEps) {
      std::ostringstream m3;
      m3 << "task " << r.task << ": compute duration "
         << (r.comp_end - r.comp_start) << " != p_j*factor " << want_work;
      out.push_back(m3.str());
    }
  } else {
    // Time-varying slave: the record must fit inside one online stretch
    // (offline transitions abort, so no completed task spans one) and the
    // piecewise speed integral over [comp_start, comp_end] must equal the
    // task's work. Re-derived from the profile, not the engine's solver.
    const std::optional<Time> outage = profile->next_offline_after(
        r.comp_start - kTimeEps);
    if (!profile->online_at(r.comp_start) ||
        (outage && r.comp_end > *outage + kDurEps)) {
      std::ostringstream m3;
      m3 << "task " << r.task << ": computes on slave " << r.slave
         << " while it is offline (t=" << r.comp_start << ".." << r.comp_end
         << ")";
      out.push_back(m3.str());
    }
    const double done = profile->online_work_between(r.comp_start, r.comp_end);
    if (std::abs(done - want_work) > kDurEps) {
      std::ostringstream m3;
      m3 << "task " << r.task << ": integrated compute work " << done
         << " != p_j*factor " << want_work;
      out.push_back(m3.str());
    }
  }
}

}  // namespace

std::vector<std::string> validate(const platform::Platform& platform,
                                  const Workload& workload,
                                  const Schedule& schedule,
                                  int port_capacity) {
  EngineOptions options;
  options.port_capacity = port_capacity;
  return validate(platform, workload, schedule, options);
}

std::vector<std::string> validate(const platform::Platform& platform,
                                  const Workload& workload,
                                  const Schedule& schedule,
                                  const EngineOptions& options) {
  const int port_capacity = options.port_capacity;
  std::vector<std::string> out;

  // A lazy run is checked against its materialized realization: slave j's
  // spans come from stream lazy_stream_ids[j] (identity keying when empty),
  // drawn by the stream generator rather than taken from the engine.
  std::vector<platform::AvailabilityProfile> lazy_profiles;
  if (options.lazy_availability.enabled()) {
    const std::vector<SlaveId>& ids = options.lazy_stream_ids;
    if (!ids.empty() &&
        ids.size() != static_cast<std::size_t>(platform.size())) {
      throw std::invalid_argument(
          "validate: lazy_stream_ids must have one entry per slave");
    }
    for (SlaveId j = 0; j < platform.size(); ++j) {
      const SlaveId stream = ids.empty() ? j : ids[static_cast<std::size_t>(j)];
      lazy_profiles.push_back(platform::generate_availability_stream(
          options.lazy_availability, static_cast<int>(stream)));
    }
  }
  const std::vector<platform::AvailabilityProfile>& profiles =
      options.lazy_availability.enabled() ? lazy_profiles
                                          : options.availability;

  // Coverage: every task exactly once, valid ids.
  std::vector<int> seen(static_cast<std::size_t>(workload.size()), 0);
  for (const TaskRecord& r : schedule.records()) {
    if (r.task < 0 || r.task >= workload.size()) {
      out.push_back("record references unknown task id " +
                    std::to_string(r.task));
      continue;
    }
    if (r.slave < 0 || r.slave >= platform.size()) {
      out.push_back("task " + std::to_string(r.task) +
                    " assigned to unknown slave " + std::to_string(r.slave));
      continue;
    }
    ++seen[static_cast<std::size_t>(r.task)];
    check_durations(platform, workload, r, options, profiles, out);
  }
  for (TaskId i = 0; i < workload.size(); ++i) {
    const int n = seen[static_cast<std::size_t>(i)];
    if (n == 0) out.push_back("task " + std::to_string(i) + " never scheduled");
    if (n > 1) {
      out.push_back("task " + std::to_string(i) + " scheduled " +
                    std::to_string(n) + " times");
    }
  }

  // One-port: sweep send intervals; at most port_capacity concurrent.
  if (port_capacity > 0) {
    // Starts and ends sorted apart with exact <. At each start s, every end
    // at or before s + kTimeEps frees its slot first: back-to-back sends are
    // legal even when float noise puts the end a hair after the next start.
    std::vector<Time> starts;
    std::vector<Time> ends;
    starts.reserve(schedule.records().size());
    ends.reserve(schedule.records().size());
    for (const TaskRecord& r : schedule.records()) {
      starts.push_back(r.send_start);
      ends.push_back(r.send_end);
    }
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    int in_flight = 0;
    std::size_t freed = 0;
    for (const Time s : starts) {
      while (freed < ends.size() && ends[freed] <= s + kTimeEps) {
        --in_flight;
        ++freed;
      }
      if (++in_flight > port_capacity) {
        std::ostringstream msg;
        msg << "one-port violation: " << in_flight
            << " sends in flight at t=" << s << " (capacity "
            << port_capacity << ")";
        out.push_back(msg.str());
        break;
      }
    }
  }

  // Per-slave serial execution: bucket the compute intervals by slave into
  // one flat array (counting sort; bucket j is [offset[j], offset[j + 1])),
  // then sort and sweep each bucket in ascending slave order.
  const std::size_t m = static_cast<std::size_t>(platform.size());
  std::vector<std::size_t> offset(m + 1, 0);
  for (const TaskRecord& r : schedule.records()) {
    if (r.slave >= 0 && r.slave < platform.size()) {
      ++offset[static_cast<std::size_t>(r.slave) + 1];
    }
  }
  for (std::size_t j = 0; j < m; ++j) offset[j + 1] += offset[j];
  std::vector<std::pair<Time, Time>> intervals(offset[m]);
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  for (const TaskRecord& r : schedule.records()) {
    if (r.slave >= 0 && r.slave < platform.size()) {
      intervals[cursor[static_cast<std::size_t>(r.slave)]++] = {r.comp_start,
                                                                r.comp_end};
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    std::sort(intervals.begin() + static_cast<std::ptrdiff_t>(offset[j]),
              intervals.begin() + static_cast<std::ptrdiff_t>(offset[j + 1]));
    for (std::size_t i = offset[j] + 1; i < offset[j + 1]; ++i) {
      if (intervals[i].first < intervals[i - 1].second - kTimeEps) {
        std::ostringstream msg;
        msg << "slave " << j << " computes two tasks at once around t="
            << intervals[i].first;
        out.push_back(msg.str());
        break;
      }
    }
  }

  return out;
}

void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       int port_capacity) {
  EngineOptions options;
  options.port_capacity = port_capacity;
  validate_or_throw(platform, workload, schedule, options);
}

void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       const EngineOptions& options) {
  const std::vector<std::string> violations =
      validate(platform, workload, schedule, options);
  if (violations.empty()) return;
  std::string msg = "infeasible schedule:";
  for (const std::string& v : violations) msg += "\n  - " + v;
  throw std::logic_error(msg);
}

}  // namespace msol::core
