#pragma once

// Shared harness for the perf benches (bench_engine_perf, bench_fleet_scale,
// bench_meta_perf): process peak RSS, JSON number formatting, the host
// description, the --scale/--json/--check-schema command line, the JSON
// writer and the schema-drift guard. bench_common.hpp serves the
// figure/table benches.

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/rank_kernel.hpp"

namespace msol::bench {

/// Peak resident set of this process so far, in kilobytes (getrusage
/// ru_maxrss: monotone across rows, so a bench that runs its rows
/// smallest-first reports the run's peak on its last row).
inline long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// A double as the default-formatted stream writes it (6 significant
/// digits): the number format of every BENCH_*.json float.
inline std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The widest rank-kernel SIMD path this host dispatches to.
inline const char* simd_name() {
  return core::rank_kernel_avx512_available() ? "avx512"
         : core::rank_kernel_simd_available() ? "avx2"
                                              : "scalar";
}

/// Hardware threads of this host (at least 1).
inline unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The shared perf-bench command line:
///   (no args)            full-scale table to stdout
///   --scale=small|full   reduced rows (CI smoke) or the full table
///   --json[=FILE]        also write the machine-readable artifact
///   --check-schema=FILE  no benching: verify FILE carries every key the
///                        bench emits; exit 1 on drift
struct PerfArgs {
  bool small = false;
  bool json = false;
  std::string json_path;     ///< the bench's BENCH_*.json unless --json=FILE
  std::string check_schema;  ///< non-empty: check this file and exit
};

/// Parses argv into `args`; prints usage and returns false on an unknown
/// argument.
inline bool parse_perf_args(int argc, char** argv, const char* bench,
                            const std::string& default_json,
                            PerfArgs& args) {
  args.json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale=small") {
      args.small = true;
    } else if (arg == "--scale=full") {
      args.small = false;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--check-schema=", 0) == 0) {
      args.check_schema = arg.substr(15);
    } else {
      std::cerr << "usage: " << bench
                << " [--scale=small|full] [--json[=FILE]] "
                   "[--check-schema=FILE]\n";
      return false;
    }
  }
  return true;
}

/// Writes `json` plus a newline to `path`; returns the process exit code.
inline int write_json(const std::string& path, const std::string& json,
                      const char* bench) {
  std::ofstream out(path);
  out << json << "\n";
  if (!out) {
    std::cerr << bench << ": cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

/// Schema-drift guard: 0 iff the artifact at `path` carries every key the
/// bench's emitter writes (so changing the JSON shape without regenerating
/// the committed artifact fails), else 1 with one line per missing key.
template <std::size_t N>
int check_schema(const std::string& path, const char* const (&keys)[N],
                 const char* bench) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << bench << ": cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  int missing = 0;
  for (const char* key : keys) {
    if (contents.find(key) == std::string::npos) {
      std::cerr << "schema drift: " << path << " is missing " << key << "\n";
      ++missing;
    }
  }
  if (missing == 0) std::cout << path << ": schema OK\n";
  return missing == 0 ? 0 : 1;
}

}  // namespace msol::bench
