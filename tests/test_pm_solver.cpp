// Tests for the particle-mesh gravity solver: mass conservation of the CIC
// deposit, the discrete Poisson identity, force symmetry around a point
// mass, and interpolation consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "hacc/pm_solver.hpp"
#include "util/rng.hpp"

using tess::geom::Vec3;
using tess::hacc::Cosmology;
using tess::hacc::PMSolver;
using tess::hacc::SimParticle;
using tess::util::Rng;

namespace {

std::size_t idx(std::size_t n, std::size_t x, std::size_t y, std::size_t z) {
  return (z * n + y) * n + x;
}

}  // namespace

TEST(PMSolver, DepositConservesMass) {
  const int ng = 8;
  PMSolver pm(ng, Cosmology{});
  Rng rng(6);
  std::vector<SimParticle> parts;
  for (int i = 0; i < 100; ++i)
    parts.push_back({{rng.uniform(0, ng), rng.uniform(0, ng), rng.uniform(0, ng)},
                     {},
                     i});
  std::vector<double> rho(pm.cells(), 0.0);
  pm.deposit(parts, 2.5, rho);
  double total = 0.0;
  for (double r : rho) total += r;
  EXPECT_NEAR(total, 2.5 * 100, 1e-9);
}

TEST(PMSolver, DepositAtCellCenterIsLocal) {
  const int ng = 8;
  PMSolver pm(ng, Cosmology{});
  // A particle exactly at the center of cell (2,3,4) deposits everything
  // into that one cell.
  std::vector<SimParticle> parts{{{2.5, 3.5, 4.5}, {}, 0}};
  std::vector<double> rho(pm.cells(), 0.0);
  pm.deposit(parts, 1.0, rho);
  EXPECT_NEAR(rho[idx(ng, 2, 3, 4)], 1.0, 1e-12);
}

TEST(PMSolver, UniformDensityGivesZeroForce) {
  const int ng = 8;
  PMSolver pm(ng, Cosmology{});
  std::vector<double> rho(pm.cells(), 1.0);
  const auto acc = pm.solve_forces(rho, 0.5);
  for (const auto& comp : acc)
    for (double a : comp) EXPECT_NEAR(a, 0.0, 1e-12);
}

TEST(PMSolver, PotentialSatisfiesDiscretePoisson) {
  // laplacian_h(phi) must equal (3 Om / 2a) * delta for the 7-point stencil
  // matched to the spectral Green's function.
  const int ng = 16;
  const auto n = static_cast<std::size_t>(ng);
  Cosmology cosmo{1.0, 0.0, 0.7};
  PMSolver pm(ng, cosmo);
  Rng rng(7);
  std::vector<double> rho(pm.cells());
  double mean = 0.0;
  for (auto& r : rho) {
    r = 1.0 + 0.3 * rng.normal();
    mean += r;
  }
  mean /= static_cast<double>(rho.size());
  const double a = 0.4;
  const auto phi = pm.potential(rho, a);
  const double factor = 1.5 * cosmo.omega_m / a;
  const std::size_t m = n - 1;
  double max_err = 0.0;
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double lap = phi[idx(n, (x + 1) & m, y, z)] +
                           phi[idx(n, (x + n - 1) & m, y, z)] +
                           phi[idx(n, x, (y + 1) & m, z)] +
                           phi[idx(n, x, (y + n - 1) & m, z)] +
                           phi[idx(n, x, y, (z + 1) & m)] +
                           phi[idx(n, x, y, (z + n - 1) & m)] -
                           6.0 * phi[idx(n, x, y, z)];
        // The k=0 mode is projected out, so compare against the mean-free
        // overdensity.
        const double rhs = factor * (rho[idx(n, x, y, z)] - mean);
        max_err = std::max(max_err, std::fabs(lap - rhs));
      }
  EXPECT_LT(max_err, 1e-10);
}

TEST(PMSolver, PointMassForcesAreSymmetricAndAttractive) {
  const int ng = 16;
  const auto n = static_cast<std::size_t>(ng);
  PMSolver pm(ng, Cosmology{1.0, 0.0, 0.7});
  // Overdensity spike at the center cell on a uniform background.
  std::vector<double> rho(pm.cells(), 1.0);
  rho[idx(n, 8, 8, 8)] += 50.0;
  const auto acc = pm.solve_forces(rho, 1.0);
  // Acceleration at (10, 8, 8) points toward -x; mirror cell (6, 8, 8)
  // toward +x with equal magnitude.
  const double ax_hi = acc[0][idx(n, 10, 8, 8)];
  const double ax_lo = acc[0][idx(n, 6, 8, 8)];
  EXPECT_LT(ax_hi, 0.0);
  EXPECT_GT(ax_lo, 0.0);
  EXPECT_NEAR(ax_hi, -ax_lo, 1e-10);
  // Tangential components vanish on the axis.
  EXPECT_NEAR(acc[1][idx(n, 10, 8, 8)], 0.0, 1e-10);
  EXPECT_NEAR(acc[2][idx(n, 10, 8, 8)], 0.0, 1e-10);
  // Closer cells feel stronger pull.
  EXPECT_GT(std::fabs(acc[0][idx(n, 9, 8, 8)]), std::fabs(acc[0][idx(n, 11, 8, 8)]));
}

TEST(PMSolver, InterpolateRecoversCellValues) {
  const int ng = 8;
  const auto n = static_cast<std::size_t>(ng);
  PMSolver pm(ng, Cosmology{});
  Rng rng(8);
  std::vector<double> field(pm.cells());
  for (auto& f : field) f = rng.normal();
  // At a cell center, CIC returns exactly that cell's value.
  EXPECT_NEAR(pm.interpolate(field, {3.5, 2.5, 1.5}), field[idx(n, 3, 2, 1)], 1e-12);
  // Halfway between two centers: the average.
  const double mid = pm.interpolate(field, {4.0, 2.5, 1.5});
  EXPECT_NEAR(mid, 0.5 * (field[idx(n, 3, 2, 1)] + field[idx(n, 4, 2, 1)]), 1e-12);
}

TEST(PMSolver, DepositInterpolateAreAdjoint) {
  // CIC deposit followed by CIC interpolation of a linear-in-x field is
  // exact for interior positions (standard PM consistency property).
  const int ng = 8;
  const auto n = static_cast<std::size_t>(ng);
  PMSolver pm(ng, Cosmology{});
  std::vector<double> field(pm.cells());
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        field[idx(n, x, y, z)] = static_cast<double>(x);
  // x-coordinate interpolated at x in [1, ng-1] equals x - 0.5.
  EXPECT_NEAR(pm.interpolate(field, {3.25, 4.0, 5.0}), 2.75, 1e-12);
  EXPECT_NEAR(pm.interpolate(field, {6.9, 2.2, 3.3}), 6.4, 1e-12);
}

TEST(PMSolver, InvalidConfigThrows) {
  EXPECT_THROW(PMSolver(12, Cosmology{}), std::invalid_argument);
  EXPECT_THROW(PMSolver(0, Cosmology{}), std::invalid_argument);
  PMSolver pm(8, Cosmology{});
  std::vector<double> bad(10);
  EXPECT_THROW(pm.potential(bad, 1.0), std::invalid_argument);
  EXPECT_THROW((void)pm.interpolate(bad, {1, 1, 1}), std::invalid_argument);
  std::vector<SimParticle> none;
  EXPECT_THROW(pm.deposit(none, 1.0, bad), std::invalid_argument);
}
