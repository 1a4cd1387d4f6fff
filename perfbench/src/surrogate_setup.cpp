#include "surrogate_setup.hpp"

#include <filesystem>

#include "common.hpp"
#include "ml/layers.hpp"
#include "ml/optimizer.hpp"
#include "sph/kernels.hpp"
#include "trace.hpp"
#include "util/omp.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Training set: resolved clouds like the starburst ones, drawn from a fixed
// seed so the weights are the same in every run whatever the workload seed.
constexpr std::uint64_t kTrainSeed = 0x7a11'0c0d;
constexpr int kTrainSamples = 4;
constexpr int kTrainEpochs = 3;
constexpr int kTrainCloudGas = 600;
constexpr double kTrainCloudRadius = 20.0;
constexpr std::uint64_t kSamplingSeed = 2024;  // the backend's Gibbs sampling stream

}  // namespace

std::vector<Particle> probeCloud(Vec3d* sn_pos) {
  auto cloud = gasBall(kTrainSeed ^ 0x9b0be, kTrainCloudGas, kTrainCloudRadius, 1.0, 100.0,
                       1, {0, 0, 0}, 1.0);
  for (auto& p : cloud) p.rho = 1.0;
  *sn_pos = {0.5, -0.3, 0.2};
  return cloud;
}

asura::ml::UNetConfig benchUNetConfig() {
  asura::ml::UNetConfig cfg;
  cfg.base_width = 8;
  return cfg;
}

asura::voxel::VoxelParams benchVoxelParams() {
  asura::voxel::VoxelParams vp;
  vp.grid_n = 32;
  return vp;
}

std::shared_ptr<asura::core::UNetSurrogateBackend> loadSurrogate(const std::string& path,
                                                                 double box_size) {
  auto net = std::make_shared<asura::core::UNetSurrogateBackend>(
      benchUNetConfig(), benchVoxelParams(), box_size, kSamplingSeed);
  net->loadWeights(path);
  return net;
}

void trainSurrogateWeights(double horizon, double box_size, const std::string& path) {
  const auto vp = benchVoxelParams();
  auto net = std::make_shared<asura::core::UNetSurrogateBackend>(benchUNetConfig(), vp,
                                                                 box_size, kSamplingSeed);
  const asura::sph::Kernel kernel{};
  asura::core::SedovOracleBackend oracle;
  asura::util::Pcg32 rng(kTrainSeed, 0x7);
  std::vector<asura::ml::Tensor> inputs, targets;
  for (int s = 0; s < kTrainSamples; ++s) {
    auto cloud = gasBall(kTrainSeed + static_cast<std::uint64_t>(s), kTrainCloudGas,
                         kTrainCloudRadius, 1.0, 100.0, 1, {0, 0, 0}, 1.0);
    for (auto& p : cloud) p.rho = 1.0;
    const Vec3d sn{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    const auto in_grid = asura::voxel::depositParticles(cloud, sn, box_size, vp, kernel);
    const auto evolved = oracle.predict(cloud, sn, asura::units::E_SN, horizon);
    const auto out_grid = asura::voxel::depositParticles(evolved, sn, box_size, vp, kernel);
    auto x = asura::voxel::encodeGrid(in_grid, vp);
    auto delta = asura::voxel::encodeGrid(out_grid, vp);  // residual target
    for (std::size_t i = 0; i < delta.numel(); ++i) delta[i] -= x[i];
    inputs.push_back(std::move(x));
    targets.push_back(std::move(delta));
  }
  asura::ml::Adam::Config oc;
  oc.lr = 2e-3;
  asura::ml::Adam opt(net->network().parameters(), oc);
  for (int epoch = 0; epoch < kTrainEpochs; ++epoch) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      net->network().zeroGrad();
      const auto pred = net->network().forward(inputs[s]);
      asura::ml::Tensor g;
      (void)asura::ml::mseLoss(pred, targets[s], &g);
      net->network().backward(g);
      opt.step();
    }
  }
  // Written under another name and renamed, so an interrupted run never
  // leaves a truncated weights file behind.
  const std::string partial = path + ".partial";
  net->network().save(partial);
  std::filesystem::rename(partial, path);
}

std::vector<Particle> TimedBackend::predict(std::vector<Particle> region,
                                            const Vec3d& sn_pos, double energy,
                                            double horizon) {
  std::vector<SurrogateRequest> one(1);
  one[0].region = std::move(region);
  one[0].sn_pos = sn_pos;
  one[0].energy = energy;
  one[0].horizon = horizon;
  return std::move(predictBatch(std::move(one))[0]);
}

std::vector<std::vector<Particle>> TimedBackend::predictBatch(
    std::vector<SurrogateRequest> requests) {
  asura::util::ompSetThreads(worker_threads_);
  bool recording = false;
  {
    std::lock_guard lock(mutex_);
    recording = recording_;
  }
  std::vector<SurrogateRequest> kept;
  if (recording) kept = requests;
  const std::size_t n = requests.size();
  const double t0 = now();
  auto out = inner_->predictBatch(std::move(requests));
  const double t1 = now();
  Tracer::instance().record("pool.predictBatch", -1, t0, t1);
  std::lock_guard lock(mutex_);
  totals_.calls += 1;
  totals_.regions += n;
  totals_.seconds += t1 - t0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    recorded_.push_back({std::move(kept[i]), out[i]});
  }
  return out;
}

TimedBackend::Totals TimedBackend::totals() const {
  std::lock_guard lock(mutex_);
  return totals_;
}

void TimedBackend::resetTotals() {
  std::lock_guard lock(mutex_);
  totals_ = Totals{};
}

void TimedBackend::setRecording(bool on) {
  std::lock_guard lock(mutex_);
  recording_ = on;
}

std::vector<TimedBackend::Pair> TimedBackend::takeRecorded() {
  std::lock_guard lock(mutex_);
  auto out = std::move(recorded_);
  recorded_.clear();
  return out;
}

}  // namespace perfbench
