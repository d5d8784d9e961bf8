// Tests for src/physics: optics constants, probe formation, propagator,
// the multislice operator and — critically — its adjoint (dot test and
// finite-difference gradient checks, both object models).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "data/synthetic.hpp"
#include "physics/multislice.hpp"
#include "physics/scan.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

OpticsGrid test_grid(usize n = 32) {
  OpticsGrid grid;
  grid.probe_n = n;
  grid.dx_pm = 10.0;
  grid.dz_pm = 125.0;
  grid.wavelength_pm = electron_wavelength_pm(200.0);
  return grid;
}

ProbeParams test_probe_params() {
  ProbeParams p;
  p.aperture_mrad = 30.0;
  p.defocus_pm = 1000.0;
  return p;
}

FramedVolume random_volume(const Rect& frame, index_t slices, std::uint64_t seed,
                           real amplitude = real(0.1)) {
  FramedVolume v(slices, frame);
  Rng rng(seed);
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < frame.h; ++y) {
      for (index_t x = 0; x < frame.w; ++x) {
        v.data(s, y, x) = cplx(1, 0) + amplitude * cplx(static_cast<real>(rng.normal()),
                                                        static_cast<real>(rng.normal()));
      }
    }
  }
  return v;
}

TEST(Optics, ElectronWavelength) {
  // Known values: 100 kV -> 3.701 pm, 200 kV -> 2.508 pm, 300 kV -> 1.969 pm.
  EXPECT_NEAR(electron_wavelength_pm(100.0), 3.701, 0.01);
  EXPECT_NEAR(electron_wavelength_pm(200.0), 2.508, 0.01);
  EXPECT_NEAR(electron_wavelength_pm(300.0), 1.969, 0.01);
}

TEST(Optics, GridFrequencies) {
  const OpticsGrid grid = test_grid(8);
  EXPECT_DOUBLE_EQ(grid.freq(0), 0.0);
  EXPECT_GT(grid.freq(1), 0.0);
  EXPECT_LT(grid.freq(7), 0.0);
  EXPECT_DOUBLE_EQ(grid.nyquist(), 0.05);
  EXPECT_DOUBLE_EQ(grid.window_pm(), 80.0);
}

TEST(Probe, NormalizedAndCentered) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  EXPECT_NEAR(probe.total_intensity(), 1.0, 1e-5);

  // Intensity centroid should be at the window center (probe is centered).
  double cy = 0.0;
  double cx = 0.0;
  for (index_t y = 0; y < probe.n(); ++y) {
    for (index_t x = 0; x < probe.n(); ++x) {
      const double w = std::norm(std::complex<double>(probe.field()(y, x)));
      cy += w * static_cast<double>(y);
      cx += w * static_cast<double>(x);
    }
  }
  EXPECT_NEAR(cy, static_cast<double>(probe.n()) / 2, 1.0);
  EXPECT_NEAR(cx, static_cast<double>(probe.n()) / 2, 1.0);
}

TEST(Probe, SupportRadiusGrowsWithDefocus) {
  const OpticsGrid grid = test_grid(64);
  ProbeParams focused = test_probe_params();
  focused.defocus_pm = 0.0;
  ProbeParams defocused = test_probe_params();
  defocused.defocus_pm = 2000.0;
  Probe p_focused(grid, focused);
  Probe p_defocused(grid, defocused);
  EXPECT_LT(p_focused.support_radius_px(0.9), p_defocused.support_radius_px(0.9));
  EXPECT_GT(p_defocused.support_radius_px(0.99), 0);
}

TEST(Probe, DegenerateApertures) {
  OpticsGrid grid = test_grid(8);
  ProbeParams params = test_probe_params();
  // A vanishing (but positive) aperture keeps only the DC bin: the probe
  // degenerates to a flat field but stays normalizable.
  params.aperture_mrad = 1e-9;
  EXPECT_NO_THROW(Probe(grid, params));
  // A negative aperture admits nothing at all and must be rejected.
  params.aperture_mrad = -1.0;
  EXPECT_THROW(Probe(grid, params), Error);
}

TEST(Propagator, PreservesBandlimitedEnergy) {
  const OpticsGrid grid = test_grid();
  Propagator prop(grid);
  // A field synthesized inside the band limit propagates unitarily.
  CArray2D psi(static_cast<index_t>(grid.probe_n), static_cast<index_t>(grid.probe_n));
  psi.fill(cplx(1, 0));  // DC only — well within the band limit
  const double before = norm_sq(psi.view());
  prop.apply(psi.view());
  EXPECT_NEAR(norm_sq(psi.view()), before, before * 1e-4);
}

TEST(Propagator, AdjointDotTest) {
  const OpticsGrid grid = test_grid(16);
  Propagator prop(grid);
  Rng rng(5);
  CArray2D a(16, 16);
  CArray2D b(16, 16);
  for (index_t y = 0; y < 16; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      b(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  CArray2D pa = a.clone();
  prop.apply(pa.view());
  CArray2D phb = b.clone();
  prop.apply_adjoint(phb.view());
  const auto lhs = dot(pa.view(), b.view());
  const auto rhs = dot(a.view(), phb.view());
  EXPECT_NEAR(lhs.real(), rhs.real(), 1e-3);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 1e-3);
}

TEST(Propagator, ZeroThicknessIsIdentity) {
  OpticsGrid grid = test_grid(16);
  grid.dz_pm = 0.0;
  Propagator prop(grid);
  Rng rng(6);
  CArray2D psi(16, 16);
  // Band-limited random field: synthesize in Fourier space inside 2/3
  // Nyquist, so the band-limit mask does not clip anything.
  fft::Fft2D plan(16, 16);
  for (index_t y = 0; y < 16; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      const double ky = grid.freq(static_cast<usize>(y));
      const double kx = grid.freq(static_cast<usize>(x));
      const bool inside = std::sqrt(kx * kx + ky * ky) <= (2.0 / 3.0) * grid.nyquist();
      psi(y, x) = inside ? cplx(static_cast<real>(rng.normal()),
                                static_cast<real>(rng.normal()))
                         : cplx{};
    }
  }
  plan.inverse(psi.view());
  CArray2D out = psi.clone();
  prop.apply(out.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(out.view(), psi.view()) / norm_sq(psi.view())), 1e-4);
}

TEST(Multislice, VacuumObjectGivesProbeFarField) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);

  FramedVolume vacuum = make_vacuum_volume(Rect{0, 0, n, n}, 3);
  MultisliceWorkspace ws(n, 3);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, vacuum, Rect{0, 0, n, n}, ws, mag.view());

  // Through vacuum the total far-field energy equals the probe energy
  // (unitary far-field transform; Parseval).
  double energy = 0.0;
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) {
      energy += static_cast<double>(mag(y, x)) * static_cast<double>(mag(y, x));
    }
  }
  EXPECT_NEAR(energy / probe.total_intensity(), 1.0, 1e-3);
}

TEST(Multislice, CostZeroWhenMeasurementsMatch) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};

  FramedVolume object = random_volume(window, 2, 11);
  MultisliceWorkspace ws(n, 2);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, object, window, ws, mag.view());
  EXPECT_NEAR(op.cost(probe, object, window, mag.view(), ws), 0.0, 1e-6);

  // Perturb the object: cost must become positive.
  object.data(1, n / 2, n / 2) += cplx(0.5f, 0.2f);
  EXPECT_GT(op.cost(probe, object, window, mag.view(), ws), 1e-6);
}

// Finite-difference check of the analytic gradient, for both object
// models. The Wirtinger gradient g satisfies, for a real perturbation e
// at one voxel: d cost / d eps ≈ Re(g); for imaginary: ≈ Im(g)... wait:
// f(V + eps) - f(V) ≈ Re(conj(g) * eps) with our convention g = 2 dF/dV*.
class MultisliceGradient : public ::testing::TestWithParam<ObjectModel> {};

TEST_P(MultisliceGradient, MatchesFiniteDifference) {
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceConfig config;
  config.model = GetParam();
  config.sigma = real(0.8);
  MultisliceOperator op(grid, config);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const index_t slices = 2;

  FramedVolume object = random_volume(window, slices, 21);
  // Synthetic "measurement": simulate from a different random object so
  // the residual is non-trivial.
  FramedVolume truth = random_volume(window, slices, 22);
  MultisliceWorkspace ws(n, slices);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, truth, window, ws, mag.view());

  FramedVolume grad(slices, window);
  const double f0 = op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);
  EXPECT_GT(f0, 0.0);

  // Probe a few voxels in each slice with central differences.
  const double eps = 1e-3;
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const index_t s = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(slices)));
    const index_t y = 2 + static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(n - 4)));
    const index_t x = 2 + static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(n - 4)));
    const bool imaginary = (trial % 2) == 1;
    const cplx delta = imaginary ? cplx(0, static_cast<real>(eps))
                                 : cplx(static_cast<real>(eps), 0);

    FramedVolume plus = object.clone();
    plus.data(s, y, x) += delta;
    FramedVolume minus = object.clone();
    minus.data(s, y, x) -= delta;
    const double fp = op.cost(probe, plus, window, mag.view(), ws);
    const double fm = op.cost(probe, minus, window, mag.view(), ws);
    const double numeric = (fp - fm) / (2.0 * eps);

    const cplx g = grad.data(s, y, x);
    // With g = 2 dF/dV*: directional derivative along real e is Re(g),
    // along imaginary e is Im(g).
    const double analytic = imaginary ? static_cast<double>(g.imag())
                                      : static_cast<double>(g.real());
    const double scale = std::max({std::abs(numeric), std::abs(analytic), 1e-3});
    EXPECT_NEAR(numeric / scale, analytic / scale, 0.15)
        << "model=" << static_cast<int>(GetParam()) << " trial=" << trial << " s=" << s
        << " y=" << y << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MultisliceGradient,
                         ::testing::Values(ObjectModel::kTransmittance,
                                           ObjectModel::kPotential));

TEST(Multislice, GradientSupportConfinedToWindow) {
  // The "special property" of Sec. III: the per-probe gradient vanishes
  // outside the probe window.
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect field{0, 0, 3 * n, 3 * n};
  const Rect window{n, n, n, n};  // center of a larger field
  const index_t slices = 2;

  FramedVolume object = random_volume(field, slices, 31);
  FramedVolume truth = random_volume(field, slices, 32);
  MultisliceWorkspace ws(n, slices);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, truth, window, ws, mag.view());

  FramedVolume grad(slices, field);
  (void)op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);

  double outside = 0.0;
  double inside = 0.0;
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < field.h; ++y) {
      for (index_t x = 0; x < field.w; ++x) {
        const double mag_sq = std::norm(std::complex<double>(grad.data(s, y, x)));
        if (window.contains(field.y0 + y, field.x0 + x)) {
          inside += mag_sq;
        } else {
          outside += mag_sq;
        }
      }
    }
  }
  EXPECT_GT(inside, 0.0);
  EXPECT_EQ(outside, 0.0);  // gradient code writes only the window
}

TEST(Multislice, CostAndGradientCostBitwiseEqualsCost) {
  // cost_and_gradient computes one magnitude per far-field pixel for both
  // its cost term and its gradient seed; the cost must stay the exact
  // double cost() returns, for both object models.
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  for (const ObjectModel model : {ObjectModel::kTransmittance, ObjectModel::kPotential}) {
    MultisliceConfig config;
    config.model = model;
    config.sigma = real(0.8);
    MultisliceOperator op(grid, config);
    const FramedVolume object = random_volume(window, 2, 41);
    const FramedVolume truth = random_volume(window, 2, 42);
    MultisliceWorkspace ws(n, 2);
    RArray2D mag(n, n);
    op.simulate_magnitude(probe, truth, window, ws, mag.view());
    FramedVolume grad(2, window);
    const double with_gradient = op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);
    const double cost_only = op.cost(probe, object, window, mag.view(), ws);
    EXPECT_GT(cost_only, 0.0);
    EXPECT_EQ(std::memcmp(&with_gradient, &cost_only, sizeof(double)), 0)
        << "model=" << static_cast<int>(model) << " cost_and_gradient=" << with_gradient
        << " cost=" << cost_only;
  }
}

TEST(Multislice, FarMagnitudeIsTheDoubleRootOfTheSquares) {
  // Finite input: the widened sqrt(re^2 + im^2), the value the seed
  // rounds. Non-finite parts fall back to the double hypot.
  Rng rng(78);
  for (int i = 0; i < 256; ++i) {
    const cplx z(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    const auto re = static_cast<double>(z.real());
    const auto im = static_cast<double>(z.imag());
    EXPECT_EQ(far_magnitude(z), std::sqrt(re * re + im * im));
  }
  using lim = std::numeric_limits<real>;
  EXPECT_EQ(far_magnitude(cplx(lim::infinity(), lim::quiet_NaN())),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(far_magnitude(cplx(lim::quiet_NaN(), real(1)))));
  // Past the float range the double root stays finite (the seed then
  // falls back to std::abs, see SeedMagnitudeBitwiseEqualsStdAbs).
  const auto big = static_cast<double>(lim::max());
  EXPECT_EQ(far_magnitude(cplx(lim::max(), lim::max())), std::sqrt(big * big + big * big));
}

TEST(Multislice, SeedMagnitudeBitwiseEqualsStdAbs) {
  // The gradient seed's |Psi| must be the exact bits std::abs returns, or
  // every strict-tier volume would change. Cover the IEEE edge cases on
  // both axes (signed zeros, denormals, the float range limit, inf, NaN)
  // and a spread of ordinary values.
  using lim = std::numeric_limits<real>;
  std::vector<real> parts = {real(0),
                             -real(0),
                             lim::denorm_min(),
                             -lim::denorm_min(),
                             real(3) * lim::denorm_min(),
                             lim::min() / real(2),
                             lim::min(),
                             -lim::min(),
                             real(1),
                             real(-1.5),
                             real(3e-20),
                             lim::max(),
                             -lim::max(),
                             lim::max() / real(2),
                             std::nextafter(lim::max(), real(0)),
                             real(2e19),
                             lim::infinity(),
                             -lim::infinity(),
                             lim::quiet_NaN(),
                             -lim::quiet_NaN()};
  Rng rng(77);
  for (int i = 0; i < 64; ++i) {
    parts.push_back(static_cast<real>(rng.normal() * std::pow(10.0, rng.uniform() * 60 - 30)));
  }
  for (const real re : parts) {
    for (const real im : parts) {
      const cplx z(re, im);
      const real fast = seed_magnitude(z);
      const real ref = std::abs(z);
      EXPECT_EQ(std::memcmp(&fast, &ref, sizeof(real)), 0)
          << "z=(" << re << "," << im << ") seed=" << fast << " abs=" << ref;
    }
  }
}

TEST(Multislice, TransmittanceModelAllocatesNoTransmittancePlanes) {
  // kTransmittance reads each slice straight from the volume window, so
  // an evaluation leaves the workspace's f32 planes unallocated.
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  FramedVolume object = random_volume(window, 3, 5);
  MultisliceWorkspace ws(n, 3);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, object, window, ws, mag.view());
  FramedVolume grad(3, window);
  (void)op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);
  for (const CArray2D& plane : ws.trans) EXPECT_TRUE(plane.empty());
}

TEST(Scan, RasterOrderAndField) {
  ScanParams params;
  params.rows = 3;
  params.cols = 3;
  params.step_px = 4;
  params.margin_px = 2;
  params.probe_n = 8;
  ScanPattern scan(params);
  ASSERT_EQ(scan.count(), 9);
  // Fig. 1(b): raster order, row-major.
  EXPECT_EQ(scan[0].window, (Rect{2, 2, 8, 8}));
  EXPECT_EQ(scan[1].window, (Rect{2, 6, 8, 8}));
  EXPECT_EQ(scan[3].window, (Rect{6, 2, 8, 8}));
  EXPECT_EQ(scan[8].window, (Rect{10, 10, 8, 8}));
  EXPECT_EQ(scan.field(), (Rect{0, 0, 20, 20}));
  for (const ProbeLocation& loc : scan.locations()) {
    EXPECT_TRUE(scan.field().contains(loc.window));
  }
  EXPECT_DOUBLE_EQ(scan.overlap_ratio(), 0.5);
}

TEST(Scan, OverlapRatioClamped) {
  ScanParams params;
  params.rows = 2;
  params.cols = 2;
  params.step_px = 16;
  params.probe_n = 8;  // step > window: no overlap
  ScanPattern scan(params);
  EXPECT_DOUBLE_EQ(scan.overlap_ratio(), 0.0);
}

}  // namespace
}  // namespace ptycho
