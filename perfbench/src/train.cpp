// Trains the starburst_surrogate workload's U-Net on Sedov-oracle pairs and
// writes its weights, deterministically: the same file on every run.
//
//   perfbench_train OUT.annx
//
// perfbench/run.py runs it once per build directory, before the first
// benchmark run, and hands the file to perfbench with --weights.

#include <cstdio>
#include <exception>

#include "surrogate_setup.hpp"
#include "util/omp.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_train OUT.annx\n");
    return 2;
  }
  try {
    const auto spec = perfbench::makeWorkload("starburst_surrogate", 1);
    asura::util::ompSetThreads(1);  // one thread: the same sums whatever the host
    perfbench::trainSurrogateWeights(spec.cfg.surrogate_horizon, spec.cfg.sn_box_size,
                                     argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_train: %s\n", e.what());
    return 1;
  }
  return 0;
}
