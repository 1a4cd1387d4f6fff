#pragma once
/// \file surrogate_setup.hpp
/// \brief The starburst workload's surrogate: a U-Net trained on Sedov-oracle
/// pairs (by perfbench_train, before the benchmark runs), and a forwarding
/// backend that times every pool call.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/surrogate.hpp"
#include "ml/unet.hpp"
#include "voxel/voxel.hpp"

namespace perfbench {

using asura::core::SurrogateBackend;
using asura::core::SurrogateRequest;
using asura::fdps::Particle;
using asura::util::Vec3d;

/// Network and voxel shape shared by the starburst run and every ml/voxel
/// replay.
asura::ml::UNetConfig benchUNetConfig();
asura::voxel::VoxelParams benchVoxelParams();

/// Trains the benchmark's U-Net deterministically (fixed sample set, fixed
/// epoch count, fixed weight seed) on Sedov-oracle pairs of resolved clouds
/// at `horizon` Myr and writes its weights to `path`. Training uses the
/// calling thread's OpenMP team.
void trainSurrogateWeights(double horizon, double box_size, const std::string& path);

/// U-Net backend with the weights trainSurrogateWeights wrote to `path`.
std::shared_ptr<asura::core::UNetSurrogateBackend> loadSurrogate(const std::string& path,
                                                                 double box_size);

/// A resolved cloud of the training distribution, drawn from a fixed seed
/// (independent of the workload seed), with its SN site: the probe on which
/// every run checks the trained surrogate's energy gain.
std::vector<Particle> probeCloud(Vec3d* sn_pos);

/// Forwards to an inner backend. On every call it pins the calling pool
/// worker's OpenMP team width (the pool never sets it), times the call and,
/// when tracing, records a span on the worker thread. With recording on it
/// also keeps each (input, output) pair for the correctness checks.
class TimedBackend final : public SurrogateBackend {
 public:
  TimedBackend(std::shared_ptr<SurrogateBackend> inner, int worker_threads)
      : inner_(std::move(inner)), worker_threads_(worker_threads) {}

  std::vector<Particle> predict(std::vector<Particle> region, const Vec3d& sn_pos,
                                double energy, double horizon) override;
  std::vector<std::vector<Particle>> predictBatch(
      std::vector<SurrogateRequest> requests) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t regions = 0;
    double seconds = 0.0;
  };
  struct Pair {
    SurrogateRequest request;
    std::vector<Particle> output;
  };

  [[nodiscard]] Totals totals() const;
  void resetTotals();
  void setRecording(bool on);
  [[nodiscard]] std::vector<Pair> takeRecorded();
  [[nodiscard]] SurrogateBackend& inner() { return *inner_; }

 private:
  std::shared_ptr<SurrogateBackend> inner_;
  int worker_threads_;
  mutable std::mutex mutex_;
  Totals totals_;
  bool recording_ = false;
  std::vector<Pair> recorded_;
};

}  // namespace perfbench
