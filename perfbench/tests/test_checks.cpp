// Self-test of the benchmark's correctness checks: each check accepts a
// correct output and rejects a corrupted one (a perturbed acceleration, a
// dropped id, a rung lag of 3, ...). Exit code 0 when every case behaves.
//
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "gravity/gravity.hpp"
#include "sph/sph.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void expectPass(const std::string& result, const std::string& what) {
  expect(result.empty(), what + (result.empty() ? "" : " (" + result + ")"));
}

void expectReject(const std::string& result, const std::string& what) {
  expect(!result.empty(), what);
}

std::vector<Particle> ball(int n) {
  return gasBall(42, n, 5.0, 1.0, 100.0, 1, {0, 0, 0}, 0.2);
}

void conservation() {
  const auto ic = ball(200);
  auto out = ic;
  expectPass(checkConservation(ic, out), "conservation accepts the unchanged set");
  out.pop_back();
  expectReject(checkConservation(ic, out), "conservation rejects a dropped id");
  out = ic;
  out[7].id = 999999;
  expectReject(checkConservation(ic, out), "conservation rejects a replaced id");
  out = ic;
  out[3].mass = std::nextafter(out[3].mass, 1e300);
  expectReject(checkConservation(ic, out), "conservation rejects a 1-ulp mass change");
  out = ic;
  out[5].u = std::nan("");
  expectReject(checkConservation(ic, out), "conservation rejects a non-finite u");
}

void restart() {
  const std::vector<char> a{1, 2, 3, 4};
  auto b = a;
  expectPass(checkRestartEqual(a, b), "restart accepts equal states");
  b[2] ^= 1;
  expectReject(checkRestartEqual(a, b), "restart rejects a flipped bit");
  b = a;
  b.push_back(0);
  expectReject(checkRestartEqual(a, b), "restart rejects a longer state");
}

void gravity() {
  auto parts = ball(2000);
  for (auto& p : parts) p.type = asura::fdps::Species::DarkMatter;
  asura::gravity::GravityParams gp;
  auto coarse = parts;
  (void)asura::gravity::accumulateTreeGravity(parts, {}, gp);
  const auto sample = sampleIndices(parts, 100, 7, [](const Particle&) { return true; });
  expectPass(checkGravity(parts, sample, gp.G, kGravityRmsBound),
             "gravity accepts tree forces at theta = 0.5");
  auto bad = parts;
  for (const auto i : sample) bad[i].acc = 1.1 * bad[i].acc;
  expectReject(checkGravity(bad, sample, gp.G, kGravityRmsBound),
               "gravity rejects accelerations perturbed by 10%");
  // Near the bound: every sampled force off by 0.8x / 1.2x the bound.
  for (const double share : {0.8, 1.2}) {
    bad = parts;
    for (const auto i : sample) {
      bad[i].acc = (1.0 + share * kGravityRmsBound) * directAcceleration(bad, i, gp.G);
    }
    const auto result = checkGravity(bad, sample, gp.G, kGravityRmsBound);
    if (share < 1.0) {
      expectPass(result, "gravity accepts an error of 0.8x the bound");
    } else {
      expectReject(result, "gravity rejects an error of 1.2x the bound");
    }
  }
  gp.theta = 1.0;
  (void)asura::gravity::accumulateTreeGravity(coarse, {}, gp);
  std::printf("      tree RMS error at theta 0.5: %.4g, at theta 1.0: %.4g\n",
              gravityRmsError(parts, sample, gp.G), gravityRmsError(coarse, sample, gp.G));
  expectReject(checkGravity(coarse, sample, gp.G, kGravityRmsBound),
               "gravity rejects tree forces at theta = 1.0");
}

void density() {
  auto parts = ball(3000);
  asura::sph::SphParams sp;
  (void)asura::sph::solveDensity(parts, parts.size(), sp);
  const auto sample = sampleIndices(parts, 50, 3, [](const Particle&) { return true; });
  expectPass(checkDensity(parts, sample, sp.n_ngb), "density accepts the solver's rho");
  auto bad = parts;
  bad[sample[0]].rho *= 1.01;
  expectReject(checkDensity(bad, sample, sp.n_ngb), "density rejects rho off by 1%");
  bad = parts;
  for (const auto i : sample) bad[i].h *= 2.0;
  expectReject(checkDensity(bad, sample, sp.n_ngb), "density rejects a doubled support");
}

void substeps() {
  asura::core::StepStats st;
  st.substeps = 5;
  st.substep_units = 1L << 8;
  expectPass(checkSubstepUnits(st, 8), "substep units accept 2^max_rung");
  st.substep_units -= 1;
  expectReject(checkSubstepUnits(st, 8), "substep units reject a shortfall of one unit");
}

void rungLag() {
  auto parts = ball(500);
  for (auto& p : parts) {
    p.h = 2.0;
    p.rung = 2;
  }
  expectPass(checkRungLag(parts, 2), "rung lag accepts equal rungs");
  parts[0].rung = 5;
  expectReject(checkRungLag(parts, 2), "rung lag rejects a lag of 3");
  expect(maxRungLag(parts) == 3, "maxRungLag measures the lag of 3");
}

void energy() {
  const double e = asura::units::E_SN;
  expectPass(checkEnergyBudget(-1e9, -1e9 + 4.1 * e, 4, e, 0.15),
             "energy budget accepts 4.1 E_SN for 4 SNe");
  expectReject(checkEnergyBudget(-1e9, -1e9 + 2.0 * e, 4, e, 0.15),
               "energy budget rejects a lost half");
  expectReject(checkEnergyBudget(-1e9, -1e9, 4, e, 0.15),
               "energy budget rejects no injection");
}

void globalStep() {
  asura::core::StepStats st;
  st.dt_used = 0.002;
  expectPass(checkGlobalStep(st, 0.002), "global step accepts dt_global");
  st.dt_used = 0.001;
  expectReject(checkGlobalStep(st, 0.002), "global step rejects a shortened step");
}

void returns() {
  const std::vector<int> sent{4, 0, 4, 0, 0, 0, 0, 0};
  const std::vector<int> recv{0, 0, 0, 4, 0, 4, 0, 0};
  expectPass(checkReturns(sent, recv, 3), "returns accept the cadence");
  auto late = recv;
  late[5] = 0;
  late[6] = 4;
  expectReject(checkReturns(sent, late, 3), "returns reject a late region");
  auto lost = recv;
  lost[3] = 3;
  expectReject(checkReturns(sent, lost, 3), "returns reject a lost region");
  expectReject(checkReturns({0, 0}, {0, 0}, 1), "returns reject a window without regions");
}

void regionEnergy() {
  const double e = asura::units::E_SN;
  const auto in = ball(300);
  double mass = 0.0;
  for (const auto& p : in) mass += p.mass;
  auto out = in;
  expectReject(checkRegionEnergy(in, out, e, 0.1, 3.0), "region energy rejects the identity");
  for (auto& p : out) p.u += 0.5 * e / mass;
  expectPass(checkRegionEnergy(in, out, e, 0.1, 3.0), "region energy accepts 0.5 E_SN");
  for (auto& p : out) p.u += 1e6 * e / mass;
  expectReject(checkRegionEnergy(in, out, e, 0.1, 3.0), "region energy rejects a runaway");
}

void samePrediction() {
  const auto a = ball(100);
  auto b = a;
  expectPass(checkSamePrediction(a, b), "same prediction accepts equal outputs");
  b[10].u = std::nextafter(b[10].u, 1e300);
  expectReject(checkSamePrediction(a, b), "same prediction rejects a 1-ulp change");
}

}  // namespace

int main() {
  conservation();
  restart();
  gravity();
  density();
  substeps();
  rungLag();
  energy();
  globalStep();
  returns();
  regionEnergy();
  samePrediction();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
