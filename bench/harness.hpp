// Shared plumbing of the plain benchmark binaries: a wall clock, the
// two flags every bench accepts, and a repeat-until-budget timer.
//
//   --out=PATH               where the JSON report goes
//   --benchmark_min_time=T   per-measurement time budget: T seconds
//                            ("0.5" or "0.5s"), or with an "x" suffix a
//                            scale factor (at most 1) on the bench's
//                            default; the CI smoke pass uses "0.01x"
//
// Other arguments are ignored.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/checked_int.hpp"

namespace inlt::bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string out;  ///< report path
  double budget_s;  ///< per-measurement budget in seconds
};

/// Parse the flags above over `defaults`.
inline Args parse_args(int argc, char** argv, Args defaults) {
  Args a = defaults;
  constexpr const char* kMinTime = "--benchmark_min_time=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      a.out = arg.substr(6);
    } else if (arg.rfind(kMinTime, 0) == 0) {
      const double v = std::atof(arg.c_str() + std::strlen(kMinTime));
      if (v > 0)
        a.budget_s = arg.back() == 'x'
                         ? std::min(defaults.budget_s, defaults.budget_s * v)
                         : v;
    }
  }
  return a;
}

struct Timing {
  double seconds_per_op = 0;  ///< mean over the timed runs
  i64 runs = 0;
};

/// Run `op` until `budget_s` is spent (at least once) and return the
/// mean time per run.
template <typename Op>
Timing time_op(double budget_s, Op&& op) {
  Timing t;
  double spent = 0;
  do {
    const double t0 = now_s();
    op();
    spent += now_s() - t0;
    ++t.runs;
  } while (spent < budget_s);
  t.seconds_per_op = spent / static_cast<double>(t.runs);
  return t;
}

/// One report row: a timed operation plus named facts it produced.
struct Measurement {
  std::string name;
  Timing t;
  std::vector<std::pair<std::string, double>> facts;
};

/// Print one line per measurement and write them to `out` as
/// {"benchmark": bench, "measurements": [{"name", "seconds", "runs",
/// <facts>...}, ...]}.
inline void write_report(const std::string& bench,
                         const std::vector<Measurement>& rows,
                         const std::string& out) {
  std::ostringstream js;
  js << "{\"benchmark\":\"" << bench << "\",\"measurements\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Measurement& r = rows[i];
    std::printf("%-36s %12.3f us  (%lld runs)", r.name.c_str(),
                r.t.seconds_per_op * 1e6, static_cast<long long>(r.t.runs));
    js << (i ? "," : "") << "{\"name\":\"" << r.name
       << "\",\"seconds\":" << r.t.seconds_per_op << ",\"runs\":" << r.t.runs;
    for (const auto& [key, value] : r.facts) {
      std::printf("  %s=%g", key.c_str(), value);
      js << ",\"" << key << "\":" << value;
    }
    std::printf("\n");
    js << "}";
  }
  js << "]}\n";
  std::ofstream(out) << js.str();
  std::printf("wrote %s\n", out.c_str());
}

}  // namespace inlt::bench
