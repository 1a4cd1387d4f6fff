#pragma once
/// \file checks.hpp
/// \brief Correctness checks of the benchmark's outputs.
///
/// Each check compares an output of the program with an independent
/// computation made here (direct summation, a brute-force kernel sum, a
/// brute-force neighbour search, the energy budget of the injected SNe) or
/// with a property the method must have (exact conservation, bitwise
/// restart, the limiter's rung gap, the surrogate's return cadence). None
/// compares with a stored copy of an earlier output. Every check returns an
/// empty string on success and a one-line reason on failure.

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/surrogate.hpp"
#include "fdps/particle.hpp"

namespace perfbench {

using asura::fdps::Particle;

// --- all workloads -----------------------------------------------------------

/// Particle count, id set and per-id mass are unchanged (bitwise), so the
/// total mass is conserved exactly; every particle's state is finite.
std::string checkConservation(const std::vector<Particle>& initial,
                              const std::vector<Particle>& final_state);

/// Two serialized end-of-window states are byte-for-byte equal.
std::string checkRestartEqual(const std::vector<char>& first,
                              const std::vector<char>& again);

// --- mw_quiet / mw_quiet_p4 ----------------------------------------------------

/// Bound on gravityRmsError for tree forces at the opening angle theta = 0.5.
/// Measured: 0.0017-0.0024 on the checked snapshots of mw_quiet and of
/// mw_quiet_p4 (with LET sources) alike, seeds 1-5; the bound leaves about
/// twice the largest, so a wrong opening angle (theta = 1 reads 0.011) or a
/// dropped multipole term fails.
inline constexpr double kGravityRmsBound = 0.005;

/// Acceleration of parts[i] by direct summation over every other particle,
/// with the Plummer-type softening eps_i^2 + eps_j^2.
asura::util::Vec3d directAcceleration(const std::vector<Particle>& parts, std::size_t i,
                                      double G);

/// RMS over `sample` (indices of collisionless particles) of
/// |a_tree - a_direct| / |a_direct|, with a_direct by direct summation over
/// every particle using the same Plummer-type softening (eps_i^2 + eps_j^2).
double gravityRmsError(const std::vector<Particle>& parts,
                       const std::vector<std::size_t>& sample, double G);
std::string checkGravity(const std::vector<Particle>& parts,
                         const std::vector<std::size_t>& sample, double G, double bound);

/// Brute-force cubic-spline density at each sampled gas particle's
/// published support H must equal its published rho, each must have n_ngb
/// (within the solver's tolerance) gas neighbours within H, and the median
/// over the sample of (4 pi / 3) H^3 rho / (n_ngb m) must be near 1.
std::string checkDensity(const std::vector<Particle>& parts,
                         const std::vector<std::size_t>& sample, int n_ngb);

/// Indices of up to `count` particles selected by `keep`, drawn from `seed`.
template <class Pred>
std::vector<std::size_t> sampleIndices(const std::vector<Particle>& parts, int count,
                                       std::uint64_t seed, Pred keep);

// --- sn_storm_rungs --------------------------------------------------------------

/// The sub-step loop tiled the global step exactly: substep_units == 2^max_rung.
std::string checkSubstepUnits(const asura::core::StepStats& stats, int max_rung);

/// Largest rung lag (neighbour rung - own rung) over gas pairs within
/// max(H_i, H_j), found by a brute-force neighbour search.
int maxRungLag(const std::vector<Particle>& parts);
std::string checkRungLag(const std::vector<Particle>& parts, int gap);

/// Total energy (kinetic + thermal + pairwise softened potential, all by
/// direct summation).
double totalEnergy(const std::vector<Particle>& parts, double G);

/// Energy change over a window equals n_sn * e_sn within `tolerance` (a
/// share of the injected energy).
std::string checkEnergyBudget(double e_before, double e_after, int n_sn, double e_sn,
                              double tolerance);

// --- starburst_surrogate ---------------------------------------------------------

/// Every step kept the fixed global step.
std::string checkGlobalStep(const asura::core::StepStats& stats, double dt_global);

/// Regions sent at window step i come back at step i + return_interval, and
/// every region sent within the window comes back within it.
std::string checkReturns(const std::vector<int>& sent, const std::vector<int>& received,
                         long return_interval);

/// Kinetic + thermal energy a region gained lies in [lo, hi] * e_sn.
double regionEnergyGain(const std::vector<Particle>& in, const std::vector<Particle>& out);
std::string checkRegionEnergy(const std::vector<Particle>& in,
                              const std::vector<Particle>& out, double e_sn, double lo,
                              double hi);

/// Two predictions of the same region are bitwise equal (ids, masses and
/// every state field the surrogate writes).
std::string checkSamePrediction(const std::vector<Particle>& a,
                                const std::vector<Particle>& b);

// ---------------------------------------------------------------------------------

template <class Pred>
std::vector<std::size_t> sampleIndices(const std::vector<Particle>& parts, int count,
                                       std::uint64_t seed, Pred keep) {
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (keep(parts[i])) pool.push_back(i);
  }
  // Partial Fisher-Yates with a splitmix stream: deterministic in `seed`.
  std::uint64_t x = seed;
  auto next = [&x]() {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::size_t n = std::min(pool.size(), static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + next() % (pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(n);
  return pool;
}

}  // namespace perfbench
