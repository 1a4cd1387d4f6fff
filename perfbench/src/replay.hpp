#pragma once
/// \file replay.hpp
/// \brief Per-layer replays of the traced run: each calls one module's public
/// functions on a copy of the workload's end-of-window snapshot and times
/// the call from outside.

#include <map>
#include <string>
#include <vector>

#include "fdps/particle.hpp"
#include "ml/unet.hpp"
#include "util/vec3.hpp"
#include "workloads.hpp"

namespace perfbench {

/// name -> value of every replay metric (names as in BENCHMARK.json).
using MetricValues = std::map<std::string, double>;

/// Gas particles of the snapshot inside the (box)^3 cube around each centre.
std::vector<std::vector<Particle>> captureRegions(const std::vector<Particle>& snap,
                                                 const std::vector<Vec3d>& centres,
                                                 double box);

/// Replay centres: the workload's SN sites, else gas particles drawn from
/// `seed`; always `count` of them (sites repeat when fewer).
std::vector<Vec3d> replayCentres(const WorkloadSpec& spec, const std::vector<Particle>& snap,
                                 int count, std::uint64_t seed);

/// fdps / gravity / sph / kernels replays on the snapshot.
MetricValues replayParticleLayers(const WorkloadSpec& spec,
                                  const std::vector<Particle>& snap, std::uint64_t seed);

/// voxel / ml replays on the captured regions with `net` (the workload's
/// own network when it has one).
MetricValues replayRegionLayers(const std::vector<std::vector<Particle>>& regions,
                                const std::vector<Vec3d>& centres, asura::ml::UNet3D& net);

}  // namespace perfbench
