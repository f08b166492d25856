// perfbench: run one workload of the end-to-end + per-layer benchmark
// and print one JSON line of raw measurements on stdout.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//             --root CHECKOUT --out DIR --threads N
//
// Workloads: verified_search_vm, native_search_cold, rank_space,
// run_generated. perfbench/run.py builds this binary and turns the line
// into the named metrics.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed S --seconds T "
               "--trace 0|1 --root DIR --out DIR --threads N\n";
  std::exit(2);
}

perfbench::Config parse_args(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload")
      cfg.workload = v;
    else if (a == "--seed")
      cfg.seed = static_cast<unsigned>(std::stoul(v));
    else if (a == "--seconds")
      cfg.seconds = std::stod(v);
    else if (a == "--trace")
      cfg.trace = v == "1";
    else if (a == "--root")
      cfg.root = v;
    else if (a == "--out")
      cfg.out_dir = v;
    else if (a == "--threads")
      cfg.threads = std::stoi(v);
    else
      usage("unknown flag " + a);
  }
  if (cfg.workload.empty() || cfg.root.empty() || cfg.out_dir.empty())
    usage("--workload, --root and --out are required");
  if (cfg.threads < 1) usage("--threads must be positive");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Config cfg = parse_args(argc, argv);
  // The native compile cache lives under --out, one per workload: the
  // cold workload empties it before every pipeline call.
  const std::string cache = cfg.out_dir + "/native-cache-" + cfg.workload;
  std::filesystem::create_directories(cache);
  setenv("INLTC_CACHE_DIR", cache.c_str(), 1);
  try {
    perfbench::Checks checks;
    perfbench::check_inputs(cfg, &checks);
    std::string line;
    if (perfbench::find_search_workload(cfg.workload))
      line = perfbench::run_search_workload(cfg, std::move(checks));
    else if (cfg.workload == "run_generated")
      line = perfbench::run_generated_workload(cfg, std::move(checks));
    else
      usage("unknown workload " + cfg.workload);
    std::cout << line << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
