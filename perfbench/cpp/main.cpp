/// \file main.cpp
/// perfbench_rahtm --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one benchmark workload and prints one JSON line on stdout:
/// {"attempted":..,"failed":..,"metrics":{name:{value,unit}},"outputs":{..}}.
/// perfbench/run.py builds this binary, checks "outputs" against the
/// committed expected values and prints the benchmark's result line.

#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_rahtm --workload cube32-cg|torus256-cg|"
               "serve-mix|sim512-replay --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return usage();
  perfbench::Options opt;
  try {
    perfbench::HostSpeed::prepare();
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else {
        return usage();
      }
    }
    perfbench::Result r;
    if (opt.workload == "cube32-cg") {
      r = perfbench::runSolveWorkload(
          opt, {"cube32-cg", {2, 2, 2, 2, 2}, 2, 1, 3, "core.pin"});
    } else if (opt.workload == "torus256-cg") {
      r = perfbench::runSolveWorkload(
          opt, {"torus256-cg", {16, 4, 4}, 2, 4, 3, "core.merge"});
    } else if (opt.workload == "serve-mix") {
      r = perfbench::runServeMix(opt);
    } else if (opt.workload == "sim512-replay") {
      r = perfbench::runSimReplay(opt);
    } else {
      return usage();
    }
    std::cout << r.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
