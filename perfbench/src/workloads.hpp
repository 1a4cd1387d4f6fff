#pragma once
/// \file workloads.hpp
/// \brief The four benchmark workloads: their inputs (generated from the
/// seed alone), their configuration, thread layout and window plan.
///
/// Every run of a workload executes whole rounds of the same operations: a
/// set-up (initial conditions, construction, warm-up steps, a restart blob
/// of the state at the window start), then repetitions of one fixed window
/// of global steps, each restored from that blob.

#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/simulation.hpp"
#include "fdps/particle.hpp"

namespace perfbench {

using asura::fdps::Particle;
using asura::util::Vec3d;

struct WorkloadSpec {
  std::string name;
  int ranks = 1;            ///< in-process SPMD ranks (comm::Cluster)
  int omp_threads = 1;      ///< OpenMP team width of each stepping thread
  int pool_threads = 1;     ///< OpenMP team width of each pool worker
  int warmup_steps = 1;     ///< steps before the window (in set-up)
  int window_steps = 1;     ///< global steps per timed window
  asura::core::SimulationConfig cfg;
  asura::core::DistributedConfig dcfg;
  /// SN progenitor sites (replay centres; empty for the quiet workloads).
  std::vector<Vec3d> sn_sites;
  /// SN events expected to fire in every window.
  int sn_per_window = 0;
};

/// Configuration + thread layout of a workload within `thread_budget`
/// hardware threads. Throws std::invalid_argument on an unknown name.
WorkloadSpec makeWorkload(const std::string& name, int thread_budget);

/// The workload's initial conditions from `seed`; fills spec.sn_sites.
std::vector<Particle> makeInitialConditions(WorkloadSpec& spec, std::uint64_t seed);

/// Uniform-density gas ball (ids first_id, first_id+1, ...), at rest, with
/// an initial support guess enclosing ~64 neighbours.
std::vector<Particle> gasBall(std::uint64_t seed, int n, double radius, double density,
                              double temp_k, std::uint64_t first_id, const Vec3d& centre,
                              double eps);

}  // namespace perfbench
