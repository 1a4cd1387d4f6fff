#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "galaxy/galaxy.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;

// mw_quiet / mw_quiet_p4: MW-mini realization (DM : stars : gas = 3 : 2 : 3).
constexpr std::size_t kMwDm = 9000, kMwStar = 6000, kMwGas = 9000;

// sn_storm_rungs: ambient ball + dense off-centre clump + staggered SNe.
constexpr int kStormGas = 6000;
constexpr int kStormSn = 4;

// starburst_surrogate: a lattice of gas clouds, one progenitor per cloud,
// firing in rounds of kBurstPerRound every kBurstRoundStride steps.
constexpr int kBurstSide = 3;            // 3 x 2 x 2 lattice = 12 clouds
constexpr int kBurstClouds = 12;
constexpr int kBurstGasPerCloud = 600;
constexpr double kBurstCloudRadius = 20.0;    // pc
constexpr double kBurstCloudSpacing = 90.0;   // pc: boxes (60 pc) never overlap
constexpr int kBurstPerRound = 4;
constexpr int kBurstRoundStride = 2;

/// Time at which a progenitor should fire: halfway through window step k.
double fireTime(const WorkloadSpec& spec, int k) {
  return (spec.warmup_steps + k + 0.5) * spec.cfg.dt_global;
}

Particle progenitor(std::uint64_t id, const Vec3d& pos, double t_sn) {
  Particle star;
  star.id = id;
  star.type = asura::fdps::Species::Star;
  star.mass = 20.0;
  star.star_mass = 20.0;
  star.pos = pos;
  star.t_sn = t_sn;
  star.eps = 0.5;
  return star;
}

}  // namespace

WorkloadSpec makeWorkload(const std::string& name, int thread_budget) {
  const int budget = std::max(1, thread_budget);
  WorkloadSpec spec;
  spec.name = name;
  auto& cfg = spec.cfg;
  cfg.enable_star_formation = false;  // keeps the particle set count-stable
  cfg.validate_steps = false;         // the benchmark runs its own checks
  if (name == "mw_quiet" || name == "mw_quiet_p4") {
    cfg.use_surrogate = false;
    cfg.hierarchical_timestep = false;
    cfg.adaptive_timestep = false;
    cfg.enable_cooling = true;
    spec.warmup_steps = 2;
    spec.window_steps = 6;
    if (name == "mw_quiet_p4") {
      spec.ranks = 4;
      spec.omp_threads = 1;
      spec.dcfg.weighted_decomposition = true;
      spec.dcfg.decompose_interval = 0;  // decompose once, maintain thereafter
      spec.dcfg.cache_exchanges = true;
      spec.dcfg.skin = 5.0;  // pc: disc speeds cover several steps
    } else {
      spec.omp_threads = budget;
    }
    return spec;
  }
  if (name == "sn_storm_rungs") {
    cfg.use_surrogate = false;  // conventional direct thermal injection
    cfg.hierarchical_timestep = true;
    cfg.timestep_limiter = true;
    cfg.max_rung = 8;
    cfg.enable_cooling = false;  // so the energy budget closes on n_SN * E_SN
    spec.omp_threads = budget;
    spec.warmup_steps = 3;
    spec.window_steps = 6;
    spec.sn_per_window = kStormSn;
    return spec;
  }
  if (name == "starburst_surrogate") {
    cfg.use_surrogate = true;
    cfg.hierarchical_timestep = false;
    cfg.adaptive_timestep = false;
    cfg.enable_cooling = true;
    cfg.return_interval = 5;
    cfg.surrogate_horizon = cfg.return_interval * cfg.dt_global;
    cfg.sn_box_size = 60.0;
    cfg.surrogate_max_batch = 8;
    // Half the budget steps the galaxy, the other half runs the pool
    // workers at one OpenMP thread each.
    spec.omp_threads = std::max(1, budget / 2);
    cfg.n_pool_nodes = std::max(1, budget - spec.omp_threads);
    spec.pool_threads = 1;
    spec.warmup_steps = 1;
    const int rounds = kBurstClouds / kBurstPerRound;
    spec.window_steps = (rounds - 1) * kBurstRoundStride +
                        static_cast<int>(cfg.return_interval) + 1;
    spec.sn_per_window = kBurstClouds;
    return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Particle> gasBall(std::uint64_t seed, int n, double radius, double density,
                              double temp_k, std::uint64_t first_id, const Vec3d& centre,
                              double eps) {
  asura::util::Pcg32 rng(seed, 0xba11);
  std::vector<Particle> parts;
  parts.reserve(static_cast<std::size_t>(n));
  const double mass = density * 4.0 / 3.0 * kPi * radius * radius * radius / n;
  for (int i = 0; i < n; ++i) {
    Vec3d pos;
    do {
      pos = {rng.uniform(-radius, radius), rng.uniform(-radius, radius),
             rng.uniform(-radius, radius)};
    } while (pos.norm() > radius);
    Particle p;
    p.id = first_id + static_cast<std::uint64_t>(i);
    p.type = asura::fdps::Species::Gas;
    p.mass = mass;
    p.pos = centre + pos;
    p.u = asura::units::temperature_to_u(temp_k, asura::units::mu_neutral);
    p.h = radius * std::cbrt(64.0 / n);
    p.eps = eps;
    parts.push_back(p);
  }
  return parts;
}

std::vector<Particle> makeInitialConditions(WorkloadSpec& spec, std::uint64_t seed) {
  spec.sn_sites.clear();
  if (spec.name == "mw_quiet" || spec.name == "mw_quiet_p4") {
    asura::galaxy::IcCounts counts;
    counts.n_dm = kMwDm;
    counts.n_star = kMwStar;
    counts.n_gas = kMwGas;
    counts.seed = seed;
    return asura::galaxy::generateGalaxy(asura::galaxy::GalaxyModel::milkyWayMini(),
                                         counts);
  }
  if (spec.name == "sn_storm_rungs") {
    // Diffuse ambient ball (3/4 of the gas) plus a dense clump shifted off
    // centre; the progenitors sit in the clump and fire on successive
    // window steps, so the clump is driven to deep rungs while the ambient
    // medium idles on the coarse ones.
    const int n_amb = 3 * kStormGas / 4;
    auto parts = gasBall(seed, n_amb, 10.0, 1.0, 100.0, 1, {0, 0, 0}, 0.2);
    const Vec3d shift{4.0, 4.0, 4.0};
    auto clump = gasBall(seed ^ 0x5bd1e995u, kStormGas - n_amb, 1.5, 60.0, 100.0,
                         1'000'001, shift, 0.2);
    parts.insert(parts.end(), clump.begin(), clump.end());
    asura::util::Pcg32 rng(seed, 0x5707);
    for (int k = 0; k < kStormSn; ++k) {
      const Vec3d pos = shift + Vec3d{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                      rng.uniform(-0.5, 0.5)};
      parts.push_back(progenitor(2'000'000 + static_cast<std::uint64_t>(k), pos,
                                 fireTime(spec, k)));
      spec.sn_sites.push_back(pos);
    }
    return parts;
  }
  if (spec.name == "starburst_surrogate") {
    // Resolved cloud complex: every 60-pc capture box holds one whole cloud
    // (~1 Msun/pc^3, ~4 pc interparticle spacing) and nothing of its
    // neighbours, so each region sees its own SN only once.
    std::vector<Particle> parts;
    asura::util::Pcg32 rng(seed, 0xb125);
    const int ny = 2;
    for (int c = 0; c < kBurstClouds; ++c) {
      const int ix = c % kBurstSide, iy = (c / kBurstSide) % ny, iz = c / (kBurstSide * ny);
      const Vec3d centre{(ix - 1.0) * kBurstCloudSpacing, (iy - 0.5) * kBurstCloudSpacing,
                         (iz - 0.5) * kBurstCloudSpacing};
      auto cloud = gasBall(seed + 7919u * static_cast<std::uint64_t>(c + 1),
                           kBurstGasPerCloud, kBurstCloudRadius, 1.0, 100.0,
                           1 + static_cast<std::uint64_t>(c) * 100'000, centre, 1.0);
      parts.insert(parts.end(), cloud.begin(), cloud.end());
      // The progenitor sits near the cloud centre; clouds fire in rounds.
      const Vec3d pos = centre + Vec3d{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                                       rng.uniform(-2.0, 2.0)};
      const int round = c / kBurstPerRound;
      parts.push_back(progenitor(5'000'000 + static_cast<std::uint64_t>(c), pos,
                                 fireTime(spec, round * kBurstRoundStride)));
      spec.sn_sites.push_back(pos);
    }
    return parts;
  }
  throw std::invalid_argument("unknown workload '" + spec.name + "'");
}

}  // namespace perfbench
