#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;

bool finiteVec(const asura::util::Vec3d& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Cubic spline (M4) with support H = 2h, normalized in 3-D.
double cubicSpline(double r, double H) {
  const double h = 0.5 * H;
  const double q = r / h;
  const double sigma = 1.0 / (kPi * h * h * h);
  if (q < 1.0) return sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  if (q < 2.0) return sigma * 0.25 * (2.0 - q) * (2.0 - q) * (2.0 - q);
  return 0.0;
}

template <class... Args>
std::string fmt(Args&&... args) {
  std::ostringstream os;
  os.precision(6);
  (os << ... << args);
  return os.str();
}

}  // namespace

std::string checkConservation(const std::vector<Particle>& initial,
                              const std::vector<Particle>& final_state) {
  if (initial.size() != final_state.size()) {
    return fmt("particle count changed: ", initial.size(), " -> ", final_state.size());
  }
  std::unordered_map<std::uint64_t, double> mass_of;
  mass_of.reserve(initial.size());
  for (const auto& p : initial) mass_of.emplace(p.id, p.mass);
  std::vector<std::uint64_t> ids;
  ids.reserve(final_state.size());
  for (const auto& p : final_state) {
    const auto it = mass_of.find(p.id);
    if (it == mass_of.end()) return fmt("id ", p.id, " was not in the initial set");
    if (!sameBits(it->second, p.mass)) return fmt("mass of id ", p.id, " changed");
    if (!finiteVec(p.pos) || !finiteVec(p.vel) || !finiteVec(p.acc) ||
        !std::isfinite(p.u) || !std::isfinite(p.rho) || !std::isfinite(p.h) ||
        !std::isfinite(p.pot)) {
      return fmt("non-finite state on id ", p.id);
    }
    ids.push_back(p.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicated id in the final state";
  }
  // Same count, no duplicates, every id known: the id sets are equal, and
  // with bitwise per-id masses so is the total mass.
  return {};
}

std::string checkRestartEqual(const std::vector<char>& first,
                              const std::vector<char>& again) {
  if (first.size() != again.size()) {
    return fmt("restarted window ended in a state of ", again.size(), " bytes, not ",
               first.size());
  }
  const auto mis = std::mismatch(first.begin(), first.end(), again.begin());
  if (mis.first != first.end()) {
    return fmt("restarted window diverged at byte ", mis.first - first.begin());
  }
  return {};
}

asura::util::Vec3d directAcceleration(const std::vector<Particle>& parts, std::size_t i,
                                      double G) {
  const Particle& p = parts[i];
  double ax = 0.0, ay = 0.0, az = 0.0;
  for (std::size_t j = 0; j < parts.size(); ++j) {
    if (j == i) continue;
    const Particle& q = parts[j];
    const double dx = p.pos.x - q.pos.x, dy = p.pos.y - q.pos.y, dz = p.pos.z - q.pos.z;
    const double r2 = dx * dx + dy * dy + dz * dz + p.eps * p.eps + q.eps * q.eps;
    const double f = q.mass / (r2 * std::sqrt(r2));
    ax -= f * dx;
    ay -= f * dy;
    az -= f * dz;
  }
  return {G * ax, G * ay, G * az};
}

double gravityRmsError(const std::vector<Particle>& parts,
                       const std::vector<std::size_t>& sample, double G) {
  if (sample.empty()) return 0.0;
  double sum2 = 0.0;
  for (const auto i : sample) {
    const auto ref = directAcceleration(parts, i, G);
    const double rel = (parts[i].acc - ref).norm() / std::max(ref.norm(), 1e-300);
    sum2 += rel * rel;
  }
  return std::sqrt(sum2 / static_cast<double>(sample.size()));
}

std::string checkGravity(const std::vector<Particle>& parts,
                         const std::vector<std::size_t>& sample, double G, double bound) {
  if (sample.empty()) return "no collisionless particle to sample";
  const double err = gravityRmsError(parts, sample, G);
  if (!(err <= bound)) {
    return fmt("tree gravity RMS relative error ", err, " exceeds ", bound);
  }
  return {};
}

std::string checkDensity(const std::vector<Particle>& parts,
                         const std::vector<std::size_t>& sample, int n_ngb) {
  if (sample.empty()) return "no gas particle to sample";
  std::vector<double> closure;
  for (const auto i : sample) {
    const Particle& p = parts[i];
    if (!p.isGas()) return fmt("density sample ", p.id, " is not gas");
    const double H = p.h;
    double rho = 0.0;
    int count = 0;
    for (const auto& q : parts) {
      if (!q.isGas()) continue;
      const double r = (p.pos - q.pos).norm();
      if (r < H) {
        rho += q.mass * cubicSpline(r, H);
        ++count;
      }
    }
    if (!(std::abs(rho - p.rho) <= 1e-6 * rho)) {
      return fmt("density of id ", p.id, ": published ", p.rho, ", kernel sum ", rho);
    }
    // The solver closes H on the neighbour count within H (tolerance
    // max(2, 5%)), which holds per particle.
    const int tol = std::max(2, n_ngb / 20);
    if (std::abs(count - n_ngb) > tol) {
      return fmt("id ", p.id, " has ", count, " neighbours within H, not ", n_ngb, " +- ",
                 tol);
    }
    closure.push_back(4.0 * kPi / 3.0 * H * H * H * p.rho / (n_ngb * p.mass));
  }
  // The mass form (4 pi / 3) H^3 rho = n_ngb m holds only on average: the
  // kernel weights an uneven neighbourhood (neighbours crowded near the edge
  // of the support, a free surface) by up to a factor of a few either way.
  std::nth_element(closure.begin(), closure.begin() + closure.size() / 2, closure.end());
  const double mid = closure[closure.size() / 2];
  if (!(mid > 0.5 && mid < 2.0)) {
    return fmt("median h-rho closure (4pi/3) H^3 rho / (n_ngb m) = ", mid, " is off");
  }
  return {};
}

std::string checkSubstepUnits(const asura::core::StepStats& stats, int max_rung) {
  const long want = 1L << max_rung;
  if (stats.substeps <= 0) return "hierarchical step ran no sub-steps";
  if (stats.substep_units != want) {
    return fmt("sub-steps advanced ", stats.substep_units, " units, not 2^", max_rung);
  }
  return {};
}

int maxRungLag(const std::vector<Particle>& parts) {
  std::vector<std::size_t> gas;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].isGas()) gas.push_back(i);
  }
  int lag = 0;
  for (std::size_t a = 0; a < gas.size(); ++a) {
    const Particle& p = parts[gas[a]];
    for (std::size_t b = a + 1; b < gas.size(); ++b) {
      const Particle& q = parts[gas[b]];
      const double reach = std::max(p.h, q.h);
      const double dx = p.pos.x - q.pos.x, dy = p.pos.y - q.pos.y, dz = p.pos.z - q.pos.z;
      if (dx * dx + dy * dy + dz * dz >= reach * reach) continue;
      const int d = static_cast<int>(p.rung) - static_cast<int>(q.rung);
      lag = std::max(lag, std::abs(d));
    }
  }
  return lag;
}

std::string checkRungLag(const std::vector<Particle>& parts, int gap) {
  const int lag = maxRungLag(parts);
  if (lag > gap) {
    // For the report: the lag the last hydro pass recorded (rung_ngb - rung).
    int recorded = 0;
    for (const auto& p : parts) {
      if (p.isGas()) recorded = std::max(recorded, int{p.rung_ngb} - int{p.rung});
    }
    return fmt("neighbour rung lag ", lag, " exceeds the limiter gap ", gap,
               " (lag recorded by the last hydro pass: ", recorded, ")");
  }
  return {};
}

double totalEnergy(const std::vector<Particle>& parts, double G) {
  double kin = 0.0, therm = 0.0, pot = 0.0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Particle& p = parts[i];
    kin += 0.5 * p.mass * p.vel.norm2();
    if (p.isGas()) therm += p.mass * p.u;
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      const Particle& q = parts[j];
      const double r2 = (p.pos - q.pos).norm2() + p.eps * p.eps + q.eps * q.eps;
      pot -= G * p.mass * q.mass / std::sqrt(r2);
    }
  }
  return kin + therm + pot;
}

std::string checkEnergyBudget(double e_before, double e_after, int n_sn, double e_sn,
                              double tolerance) {
  const double injected = n_sn * e_sn;
  const double gained = e_after - e_before;
  if (!(std::abs(gained - injected) <= tolerance * injected)) {
    return fmt("energy gained over the window ", gained, " vs ", n_sn,
               " SNe x E_SN = ", injected, " (tolerance ", tolerance, ")");
  }
  return {};
}

std::string checkGlobalStep(const asura::core::StepStats& stats, double dt_global) {
  if (!sameBits(stats.dt_used, dt_global)) {
    return fmt("step used dt ", stats.dt_used, " instead of the global ", dt_global);
  }
  return {};
}

std::string checkReturns(const std::vector<int>& sent, const std::vector<int>& received,
                         long return_interval) {
  if (sent.size() != received.size()) return "sent/received series differ in length";
  const auto n = static_cast<long>(sent.size());
  long total_sent = 0, total_received = 0;
  for (long i = 0; i < n; ++i) {
    total_sent += sent[static_cast<std::size_t>(i)];
    total_received += received[static_cast<std::size_t>(i)];
    const long back = i + return_interval;
    if (back < n && received[static_cast<std::size_t>(back)] !=
                        sent[static_cast<std::size_t>(i)]) {
      return fmt(sent[static_cast<std::size_t>(i)], " regions sent at window step ", i,
                 " but ", received[static_cast<std::size_t>(back)], " received at step ",
                 back);
    }
    if (back >= n && sent[static_cast<std::size_t>(i)] != 0) {
      return fmt("regions sent at window step ", i, " cannot return inside the window");
    }
  }
  if (total_sent == 0) return "no region was sent";
  if (total_sent != total_received) {
    return fmt(total_sent, " regions sent but ", total_received, " received");
  }
  return {};
}

double regionEnergyGain(const std::vector<Particle>& in, const std::vector<Particle>& out) {
  auto energy = [](const std::vector<Particle>& v) {
    double e = 0.0;
    for (const auto& p : v) e += p.mass * (p.u + 0.5 * p.vel.norm2());
    return e;
  };
  return energy(out) - energy(in);
}

std::string checkRegionEnergy(const std::vector<Particle>& in,
                              const std::vector<Particle>& out, double e_sn, double lo,
                              double hi) {
  const double gain = regionEnergyGain(in, out) / e_sn;
  if (!(gain >= lo && gain <= hi)) {
    return fmt("region of ", in.size(), " particles gained ", gain, " E_SN, outside [",
               lo, ", ", hi, "]");
  }
  return {};
}

std::string checkSamePrediction(const std::vector<Particle>& a,
                                const std::vector<Particle>& b) {
  if (a.size() != b.size()) return "predictions differ in particle count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Particle &p = a[i], &q = b[i];
    const bool same = p.id == q.id && sameBits(p.mass, q.mass) &&
                      sameBits(p.pos.x, q.pos.x) && sameBits(p.pos.y, q.pos.y) &&
                      sameBits(p.pos.z, q.pos.z) && sameBits(p.vel.x, q.vel.x) &&
                      sameBits(p.vel.y, q.vel.y) && sameBits(p.vel.z, q.vel.z) &&
                      sameBits(p.u, q.u) && sameBits(p.rho, q.rho) && sameBits(p.h, q.h);
    if (!same) return fmt("batched and single predictions differ at id ", p.id);
  }
  return {};
}

}  // namespace perfbench
