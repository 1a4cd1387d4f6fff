#include "replay.hpp"

#include <algorithm>
#include <cmath>

#include "checks.hpp"
#include "common.hpp"
#include "fdps/context.hpp"
#include "fdps/tree.hpp"
#include "gravity/gravity.hpp"
#include "kernels/registry.hpp"
#include "ml/layers.hpp"
#include "sph/sph.hpp"
#include "surrogate_setup.hpp"
#include "trace.hpp"
#include "voxel/voxel.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;            // repetitions of each timed replay (median)
constexpr double kKernelSlice = 0.05;  // s of calls per kernel timing trial
constexpr int kKernelTargets = 64;
constexpr std::size_t kKernelSources = 4096;
constexpr int kSphSamples = 256;
constexpr int kForceSample = 64;

/// Median wall time [s] of kReps calls of `fn`, each under a replay span.
template <class Fn>
double timeMedian(const char* name, int parent, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan span(name, parent);
    const double t0 = now();
    fn();
    t.push_back(now() - t0);
  }
  return median(t);
}

/// Calls per second of `call` over kReps trials of kKernelSlice seconds.
template <class Fn>
double callRate(const char* name, int parent, Fn&& call) {
  std::vector<double> rates;
  for (int r = 0; r < kReps; ++r) {
    ScopedSpan span(name, parent);
    const double t0 = now();
    long calls = 0;
    double t1 = t0;
    do {
      for (int k = 0; k < 16; ++k) call();
      calls += 16;
      t1 = now();
    } while (t1 - t0 < kKernelSlice);
    rates.push_back(static_cast<double>(calls) / (t1 - t0));
  }
  return median(rates);
}

std::vector<Particle> resetForces(const std::vector<Particle>& snap) {
  auto parts = snap;
  for (auto& p : parts) {
    p.acc = {};
    p.pot = 0.0;
  }
  return parts;
}

/// Brute-force neighbour lists of sampled gas particles.
struct Neighbours {
  std::vector<std::size_t> targets;
  std::vector<std::vector<std::size_t>> lists;
};

Neighbours findNeighbours(const std::vector<Particle>& parts, std::uint64_t seed,
                          bool symmetric) {
  Neighbours nb;
  nb.targets = sampleIndices(parts, kSphSamples, seed,
                             [](const Particle& p) { return p.isGas() && p.rho > 0.0; });
  for (const auto i : nb.targets) {
    const Particle& p = parts[i];
    std::vector<std::size_t> list;
    for (std::size_t j = 0; j < parts.size(); ++j) {
      const Particle& q = parts[j];
      if (!q.isGas()) continue;
      const double r2 = (p.pos - q.pos).norm2();
      if (symmetric) {
        const double reach = std::max(p.h, q.h);
        if (r2 > 0.0 && r2 < reach * reach && j != i && q.rho > 0.0) list.push_back(j);
      } else if (r2 <= p.h * p.h) {
        list.push_back(j);
      }
    }
    nb.lists.push_back(std::move(list));
  }
  return nb;
}

double gravityKernelGflops(const std::vector<Particle>& snap, std::uint64_t seed,
                           const asura::pikg::KernelSet& ks, int parent) {
  const auto tgt = sampleIndices(snap, kKernelTargets, seed, [](const Particle&) {
    return true;
  });
  const auto src = sampleIndices(snap, static_cast<int>(kKernelSources), seed ^ 0x51,
                                 [](const Particle&) { return true; });
  if (tgt.empty() || src.empty()) return 0.0;
  Vec3d centre{};
  for (const auto i : tgt) centre += snap[i].pos;
  centre = centre / static_cast<double>(tgt.size());
  const int ni = static_cast<int>(tgt.size()), nj = static_cast<int>(src.size());
  std::vector<float> tx, ty, tz, te2, sx, sy, sz, sm, se2;
  for (const auto i : tgt) {
    const Vec3d r = snap[i].pos - centre;
    tx.push_back(static_cast<float>(r.x));
    ty.push_back(static_cast<float>(r.y));
    tz.push_back(static_cast<float>(r.z));
    te2.push_back(static_cast<float>(snap[i].eps * snap[i].eps));
  }
  for (const auto j : src) {
    const Vec3d r = snap[j].pos - centre;
    sx.push_back(static_cast<float>(r.x));
    sy.push_back(static_cast<float>(r.y));
    sz.push_back(static_cast<float>(r.z));
    sm.push_back(static_cast<float>(snap[j].mass));
    se2.push_back(static_cast<float>(snap[j].eps * snap[j].eps));
  }
  std::vector<double> ax(tgt.size()), ay(tgt.size()), az(tgt.size()), pt(tgt.size());
  const double rate = callRate("replay.kernels.gravity", parent, [&] {
    ks.grav(ni, tx.data(), ty.data(), tz.data(), te2.data(), nj, sx.data(), sy.data(),
            sz.data(), sm.data(), se2.data(), ax.data(), ay.data(), az.data(), pt.data());
  });
  return rate * 27.0 * ni * nj / 1e9;
}

double densityKernelGflops(const std::vector<Particle>& snap, const Neighbours& nb,
                           const asura::pikg::KernelSet& ks, const double* wtab,
                           int parent) {
  // Pack every neighbour list once into flat SoA.
  std::vector<double> x, y, z, m, vx, vy, vz;
  std::vector<std::size_t> off{0};
  for (const auto& list : nb.lists) {
    for (const auto j : list) {
      const Particle& q = snap[j];
      x.push_back(q.pos.x); y.push_back(q.pos.y); z.push_back(q.pos.z);
      m.push_back(q.mass);
      vx.push_back(q.vel.x); vy.push_back(q.vel.y); vz.push_back(q.vel.z);
    }
    off.push_back(x.size());
  }
  if (x.empty()) return 0.0;
  const double rate = callRate("replay.kernels.density", parent, [&] {
    for (std::size_t t = 0; t < nb.targets.size(); ++t) {
      const Particle& p = snap[nb.targets[t]];
      const double hinv = 1.0 / p.h, hinv3 = hinv * hinv * hinv, hinv4 = hinv3 * hinv;
      double rho = 0.0, div = 0.0, cx = 0.0, cy = 0.0, cz = 0.0;
      const std::size_t o = off[t];
      ks.dens(1, &p.pos.x, &p.pos.y, &p.pos.z, &p.vel.x, &p.vel.y, &p.vel.z, &hinv,
              &hinv3, &hinv4, static_cast<int>(off[t + 1] - o), x.data() + o, y.data() + o,
              z.data() + o, m.data() + o, vx.data() + o, vy.data() + o, vz.data() + o,
              wtab, &rho, &div, &cx, &cy, &cz);
    }
  });
  return rate * 73.0 * static_cast<double>(x.size()) / 1e9;
}

double balsara(const Particle& p) {
  const double h = 0.5 * p.h;
  return std::abs(p.divv) / (std::abs(p.divv) + p.curlv + 1e-4 * p.cs / std::max(h, 1e-30));
}

double hydroKernelGflops(const std::vector<Particle>& snap, const Neighbours& nb,
                         const asura::pikg::KernelSet& ks, const double* dwtab,
                         const asura::sph::SphParams& sp, int parent) {
  std::vector<double> x, y, z, m, vx, vy, vz, hf, hh, hi, h4, p2, rho, cs, bal;
  std::vector<std::size_t> off{0};
  for (const auto& list : nb.lists) {
    for (const auto j : list) {
      const Particle& q = snap[j];
      x.push_back(q.pos.x); y.push_back(q.pos.y); z.push_back(q.pos.z);
      m.push_back(q.mass);
      vx.push_back(q.vel.x); vy.push_back(q.vel.y); vz.push_back(q.vel.z);
      const double hinv = 1.0 / q.h;
      hf.push_back(q.h); hh.push_back(0.5 * q.h); hi.push_back(hinv);
      h4.push_back(hinv * hinv * hinv * hinv);
      p2.push_back(q.pres / (q.rho * q.rho));
      rho.push_back(q.rho); cs.push_back(q.cs); bal.push_back(balsara(q));
    }
    off.push_back(x.size());
  }
  if (x.empty()) return 0.0;
  const double rate = callRate("replay.kernels.hydro", parent, [&] {
    for (std::size_t t = 0; t < nb.targets.size(); ++t) {
      const Particle& p = snap[nb.targets[t]];
      const double Hi = p.h, hh_i = 0.5 * p.h, hinv_i = 1.0 / p.h;
      const double hinv4_i = hinv_i * hinv_i * hinv_i * hinv_i;
      const double prho2_i = p.pres / (p.rho * p.rho), bal_i = balsara(p);
      double fax = 0.0, fay = 0.0, faz = 0.0, du = 0.0, vsig = p.cs;
      const std::size_t o = off[t];
      ks.hydro(1, &p.pos.x, &p.pos.y, &p.pos.z, &p.vel.x, &p.vel.y, &p.vel.z, &Hi, &hh_i,
               &hinv_i, &hinv4_i, &prho2_i, &p.rho, &p.cs, &bal_i,
               static_cast<int>(off[t + 1] - o), x.data() + o, y.data() + o, z.data() + o,
               m.data() + o, vx.data() + o, vy.data() + o, vz.data() + o, hf.data() + o,
               hh.data() + o, hi.data() + o, h4.data() + o, p2.data() + o, rho.data() + o,
               cs.data() + o, bal.data() + o, dwtab, sp.alpha_visc, sp.beta_visc, &fax,
               &fay, &faz, &du, &vsig);
    }
  });
  return rate * 101.0 * static_cast<double>(x.size()) / 1e9;
}

asura::ml::Tensor stack(const std::vector<asura::ml::Tensor>& enc, int batch) {
  const auto& s0 = enc[0].shape();
  asura::ml::Tensor x({batch, s0[0], s0[1], s0[2], s0[3]});
  const std::size_t per = enc[0].numel();
  for (int b = 0; b < batch; ++b) {
    const auto& e = enc[static_cast<std::size_t>(b) % enc.size()];
    std::copy(e.data(), e.data() + per, x.data() + static_cast<std::size_t>(b) * per);
  }
  return x;
}

}  // namespace

std::vector<std::vector<Particle>> captureRegions(const std::vector<Particle>& snap,
                                                 const std::vector<Vec3d>& centres,
                                                 double box) {
  std::vector<std::vector<Particle>> regions;
  const double half = 0.5 * box;
  for (const auto& c : centres) {
    std::vector<Particle> region;
    for (const auto& p : snap) {
      const Vec3d d = p.pos - c;
      if (p.isGas() && std::abs(d.x) <= half && std::abs(d.y) <= half &&
          std::abs(d.z) <= half) {
        region.push_back(p);
      }
    }
    regions.push_back(std::move(region));
  }
  return regions;
}

std::vector<Vec3d> replayCentres(const WorkloadSpec& spec, const std::vector<Particle>& snap,
                                 int count, std::uint64_t seed) {
  std::vector<Vec3d> out;
  if (!spec.sn_sites.empty()) {
    for (int i = 0; i < count; ++i) {
      out.push_back(spec.sn_sites[static_cast<std::size_t>(i) % spec.sn_sites.size()]);
    }
    return out;
  }
  const auto idx =
      sampleIndices(snap, count, seed, [](const Particle& p) { return p.isGas(); });
  for (int i = 0; i < count && !idx.empty(); ++i) {
    out.push_back(snap[idx[static_cast<std::size_t>(i) % idx.size()]].pos);
  }
  return out;
}

MetricValues replayParticleLayers(const WorkloadSpec& spec,
                                  const std::vector<Particle>& snap, std::uint64_t seed) {
  MetricValues out;
  const int section = Tracer::instance().open("replay.particles");

  // fdps: tree build over every particle.
  const auto entries = asura::fdps::makeSourceEntries(snap);
  out["fdps.tree_build_ms"] =
      1e3 * timeMedian("replay.fdps.tree_build", section, [&] {
        asura::fdps::SourceTree tree;
        tree.build(entries, spec.cfg.gravity.leaf_size);
      });

  // gravity: one full pass with a fresh pipeline cache (tree build included,
  // as in the first pass of a step).
  auto gp = spec.cfg.gravity;
  if (gp.isa == asura::pikg::Isa::Auto) gp.isa = spec.cfg.kernel_isa;
  asura::gravity::GravityStats gstats;
  std::vector<Particle> grav_out;
  out["gravity.pass_ms"] = 1e3 * timeMedian("replay.gravity.pass", section, [&] {
    auto parts = resetForces(snap);
    asura::fdps::StepContext ctx;
    gstats = asura::gravity::accumulateTreeGravity(ctx, parts, {}, gp);
    grav_out = std::move(parts);
  });
  out["gravity.interactions_per_particle"] =
      static_cast<double>(gstats.ep_interactions + gstats.sp_interactions) /
      static_cast<double>(std::max<std::uint64_t>(gstats.targets, 1));
  const auto sample = sampleIndices(grav_out, kForceSample, seed ^ 0xf0,
                                    [](const Particle&) { return true; });
  out["gravity.force_rms_error"] = gravityRmsError(grav_out, sample, gp.G);

  // sph: density solve then hydro force, on one shared pipeline cache.
  auto sp = spec.cfg.sph;
  if (sp.isa == asura::pikg::Isa::Auto) sp.isa = spec.cfg.kernel_isa;
  std::vector<double> dens_t, hydro_t;
  int iterations = 0;
  for (int r = 0; r < kReps; ++r) {
    auto parts = snap;
    asura::fdps::StepContext ctx;
    double t0 = 0.0;
    {
      ScopedSpan span("replay.sph.density", section);
      t0 = now();
      const auto ds = asura::sph::solveDensity(ctx, parts, parts.size(), sp);
      dens_t.push_back(now() - t0);
      iterations = ds.max_iterations;
    }
    {
      ScopedSpan span("replay.sph.hydro", section);
      t0 = now();
      (void)asura::sph::accumulateHydroForce(ctx, parts, parts.size(), sp);
      hydro_t.push_back(now() - t0);
    }
  }
  out["sph.density_ms"] = 1e3 * median(dens_t);
  out["sph.hydro_ms"] = 1e3 * median(hydro_t);
  out["sph.density_iterations"] = iterations;

  // kernels: the PIKG set the steps dispatch to, on SoA packed from the
  // snapshot (one calling thread).
  const auto& ks = asura::pikg::kernels(spec.cfg.kernel_isa);
  const auto tabs = asura::pikg::gen::sphTables(
      sp.kernel.type == asura::sph::KernelType::WendlandC2 ? 1 : 0);
  out["kernels.gravity_gflops"] = gravityKernelGflops(snap, seed ^ 0x6a, ks, section);
  out["kernels.density_gflops"] =
      densityKernelGflops(snap, findNeighbours(snap, seed ^ 0xde, false), ks, tabs.w, section);
  out["kernels.hydro_gflops"] = hydroKernelGflops(
      snap, findNeighbours(snap, seed ^ 0xde, true), ks, tabs.dw, sp, section);
  Tracer::instance().close(section);
  return out;
}

MetricValues replayRegionLayers(const std::vector<std::vector<Particle>>& regions,
                                const std::vector<Vec3d>& centres, asura::ml::UNet3D& net) {
  MetricValues out;
  const int section = Tracer::instance().open("replay.regions");
  const auto vp = benchVoxelParams();
  const asura::sph::Kernel kernel{};
  std::vector<asura::voxel::VoxelGrid> grids(regions.size());
  std::vector<asura::ml::Tensor> enc(regions.size());
  out["voxel.deposit_ms"] =
      1e3 * timeMedian("replay.voxel.deposit", section, [&] {
        for (std::size_t i = 0; i < regions.size(); ++i) {
          grids[i] = asura::voxel::depositParticles(regions[i], centres[i], 60.0, vp, kernel);
        }
      }) / static_cast<double>(regions.size());
  out["voxel.encode_ms"] = 1e3 * timeMedian("replay.voxel.encode", section, [&] {
                             for (std::size_t i = 0; i < grids.size(); ++i) {
                               enc[i] = asura::voxel::encodeGrid(grids[i], vp);
                             }
                           }) / static_cast<double>(regions.size());
  asura::ml::InferenceModeScope inference;
  const auto x1 = stack(enc, 1);
  const auto x8 = stack(enc, 8);
  out["ml.forward_ms_b1"] =
      1e3 * timeMedian("replay.ml.forward_b1", section, [&] { (void)net.forward(x1); });
  out["ml.forward_ms_b8"] =
      1e3 * timeMedian("replay.ml.forward_b8", section, [&] { (void)net.forward(x8); }) / 8.0;
  Tracer::instance().close(section);
  return out;
}

}  // namespace perfbench
