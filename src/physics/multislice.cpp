#include "physics/multislice.hpp"

#include <cmath>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptycho {

MultisliceWorkspace::MultisliceWorkspace(index_t probe_n, index_t slices,
                                         compact::Format compact_trans_format)
    : psi(probe_n, probe_n),
      far(probe_n, probe_n),
      grad(probe_n, probe_n),
      scratch(probe_n, probe_n),
      compact_trans(compact_trans_format) {
  psi_in.reserve(static_cast<usize>(slices));
  for (index_t s = 0; s < slices; ++s) psi_in.emplace_back(probe_n, probe_n);
  // The f32 transmittance planes stay unallocated (0x0) until a kPotential
  // evaluation without the compact cache needs them (compute_transmittance):
  // kTransmittance reads the volume directly.
  trans.resize(static_cast<usize>(slices));
}

WorkspacePool::WorkspacePool(index_t probe_n, index_t slices, int slots,
                             bool cache_transmittance, compact::Format compact_trans) {
  PTYCHO_REQUIRE(slots >= 1, "workspace pool needs at least one slot");
  workspaces_.reserve(static_cast<usize>(slots));
  for (int s = 0; s < slots; ++s) {
    workspaces_.emplace_back(probe_n, slices, cache_transmittance ? compact_trans
                                                                  : compact::Format::kNone);
    workspaces_.back().cache_transmittance = cache_transmittance;
  }
}

MultisliceOperator::MultisliceOperator(const OpticsGrid& grid, MultisliceConfig config)
    : grid_(grid), config_(config), propagator_(grid) {}

bool MultisliceOperator::compact_cache_active(const MultisliceWorkspace& ws) const {
  // Compact storage rides the transmittance *cache*: without the cache the
  // planes are rebuilt per evaluation and encoding them would only add
  // work. kTransmittance evaluations always run f32.
  return ws.compact_trans != compact::Format::kNone &&
         config_.model == ObjectModel::kPotential && ws.cache_transmittance;
}

double far_magnitude(cplx z) {
  const auto re = static_cast<double>(z.real());
  const auto im = static_cast<double>(z.imag());
  const double mag = std::sqrt(re * re + im * im);
  return std::isfinite(mag) ? mag : std::abs(std::complex<double>(re, im));
}

namespace {
/// seed_magnitude(z) given far_magnitude(z).
real seed_from_far(double far_mag, cplx z) {
  const auto mag = static_cast<real>(far_mag);
  return std::isfinite(mag) ? mag : std::abs(z);
}
}  // namespace

real seed_magnitude(cplx z) { return seed_from_far(far_magnitude(z), z); }

View2D<const cplx> MultisliceOperator::slice_transmittance(const FramedVolume& volume,
                                                           const Rect& window,
                                                           MultisliceWorkspace& ws,
                                                           index_t s) const {
  if (config_.model == ObjectModel::kTransmittance) return volume.window(s, window);
  const auto us = static_cast<usize>(s);
  if (!compact_cache_active(ws)) return ws.trans[us].view();
  const auto n = static_cast<index_t>(grid_.probe_n);
  if (ws.trans_scratch.empty()) ws.trans_scratch = CArray2D(n, n);
  compact::decode(ws.compact_trans, reinterpret_cast<real*>(ws.trans_scratch.data()),
                  ws.trans_c[us].data(), static_cast<usize>(n) * static_cast<usize>(n) * 2);
  return ws.trans_scratch.view();
}

void MultisliceOperator::compute_transmittance(const FramedVolume& volume, const Rect& window,
                                               MultisliceWorkspace& ws) const {
  const index_t slices = volume.slices();
  PTYCHO_CHECK(ws.trans.size() == static_cast<usize>(slices),
               "workspace slice count mismatch");
  // t_s = V_s: slice_transmittance hands out the volume window itself.
  if (config_.model == ObjectModel::kTransmittance) return;
  // kPotential pays exp/cos/sin per voxel; skip the rebuild when the cached
  // tile is provably current (same revision token, same window).
  const bool cacheable = config_.model == ObjectModel::kPotential && ws.cache_transmittance;
  if (cacheable && ws.trans_revision == volume.revision && ws.trans_window == window) {
    if (obs::metrics_enabled()) {
      static obs::Counter& hits = obs::registry().counter("workspace_cache_hits_total");
      hits.add(1);
    }
    return;
  }
  if (cacheable && obs::metrics_enabled()) {
    static obs::Counter& misses = obs::registry().counter("workspace_cache_misses_total");
    misses.add(1);
  }
  const bool compact = compact_cache_active(ws);
  const auto n = static_cast<index_t>(grid_.probe_n);
  if (compact) {
    const usize plane = static_cast<usize>(n) * static_cast<usize>(n) * 2;
    if (ws.trans_c.size() != static_cast<usize>(slices)) {
      ws.trans_c.assign(static_cast<usize>(slices), std::vector<std::uint16_t>(plane));
    }
    if (ws.trans_scratch.empty()) ws.trans_scratch = CArray2D(n, n);
  }
  for (index_t s = 0; s < slices; ++s) {
    View2D<const cplx> v = volume.window(s, window);
    // The f32 planes are allocated on first use (see the workspace
    // constructor).
    if (!compact && ws.trans[static_cast<usize>(s)].empty()) {
      ws.trans[static_cast<usize>(s)] = CArray2D(n, n);
    }
    View2D<cplx> t = compact ? ws.trans_scratch.view() : ws.trans[static_cast<usize>(s)].view();
    // t = exp(i * sigma * V): exp(i s (a+bi)) = exp(-s b) * (cos(sa) + i sin(sa))
    const real sigma = config_.sigma;
    for (index_t y = 0; y < v.rows(); ++y) {
      const cplx* vr = v.row(y);
      cplx* tr = t.row(y);
      for (index_t x = 0; x < v.cols(); ++x) {
        const real amp = std::exp(-sigma * vr[x].imag());
        const real phase = sigma * vr[x].real();
        tr[x] = cplx(amp * std::cos(phase), amp * std::sin(phase));
      }
    }
    if (compact) {
      compact::encode(ws.compact_trans, ws.trans_c[static_cast<usize>(s)].data(),
                      reinterpret_cast<const real*>(ws.trans_scratch.data()),
                      static_cast<usize>(n) * static_cast<usize>(n) * 2,
                      "a transmittance plane");
    }
  }
  if (cacheable) {
    ws.trans_revision = volume.revision;
    ws.trans_window = window;
  }
}

void MultisliceOperator::forward(const Probe& probe, const FramedVolume& volume,
                                 const Rect& window, MultisliceWorkspace& ws) const {
  const auto n = static_cast<index_t>(grid_.probe_n);
  PTYCHO_REQUIRE(window.h == n && window.w == n, "probe window must be probe_n x probe_n");
  PTYCHO_REQUIRE(volume.frame.contains(window), "probe window must lie inside the tile frame");
  const index_t slices = volume.slices();

  compute_transmittance(volume, window, ws);

  // Fast tier: the last slice's propagation ends with an inverse FFT that
  // the far-field forward immediately undoes. F(F^-1(x)) == x exactly in
  // algebra, so the fast tier elides the roundtrip and forms
  // far = (1/n) * H .* F(T_last .* psi) directly — one full FFT pair
  // saved per evaluation, at the cost of the roundtrip's roundoff no
  // longer being replayed. Strict keeps the composed sequence bitwise.
  const bool fast_spectral =
      backend::active_precision() == backend::Precision::kFast && slices > 0;
  copy(probe.field().view(), ws.psi.view());
  for (index_t s = 0; s < slices; ++s) {
    // Record the wavefield entering the slice (needed for the adjoint).
    copy(ws.psi.view(), ws.psi_in[static_cast<usize>(s)].view());
    multiply_inplace(slice_transmittance(volume, window, ws, s), ws.psi.view());
    if (!fast_spectral || s + 1 < slices) propagator_.apply(ws.psi.view());
  }
  // Unitary far-field transform: |far|^2 integrates to the exit-wave
  // energy (Parseval), so measurement magnitudes and gradients are
  // independent of the window size. The 1/n normalization rides in the
  // transform's last pass.
  const cplx unitary(real(1) / static_cast<real>(grid_.probe_n), 0);
  if (fast_spectral) {
    const auto lanes = static_cast<usize>(n) * static_cast<usize>(n);
    propagator_.fft().forward_multiply(ws.psi.view(), propagator_.kernel().view());
    backend::kernels().scale_lanes(ws.far.data(), ws.psi.data(), unitary, lanes);
  } else {
    copy(ws.psi.view(), ws.far.view());
    propagator_.fft().forward_scale(ws.far.view(), unitary);
  }
}

void MultisliceOperator::simulate_magnitude(const Probe& probe, const FramedVolume& volume,
                                            const Rect& window, MultisliceWorkspace& ws,
                                            View2D<real> out) const {
  forward(probe, volume, window, ws);
  for (index_t y = 0; y < out.rows(); ++y) {
    real* o = out.row(y);
    const cplx* f = ws.far.row(y);
    for (index_t x = 0; x < out.cols(); ++x) o[x] = std::abs(f[x]);
  }
}

double MultisliceOperator::cost_from_far(View2D<const real> y_mag,
                                         const MultisliceWorkspace& ws) const {
  double acc = 0.0;
  for (index_t y = 0; y < y_mag.rows(); ++y) {
    const real* ym = y_mag.row(y);
    const cplx* f = ws.far.row(y);
    for (index_t x = 0; x < y_mag.cols(); ++x) {
      const double diff = far_magnitude(f[x]) - static_cast<double>(ym[x]);
      acc += diff * diff;
    }
  }
  return acc;
}

double MultisliceOperator::cost(const Probe& probe, const FramedVolume& volume,
                                const Rect& window, View2D<const real> y_mag,
                                MultisliceWorkspace& ws) const {
  forward(probe, volume, window, ws);
  return cost_from_far(y_mag, ws);
}

double MultisliceOperator::cost_and_gradient(const Probe& probe, const FramedVolume& volume,
                                             const Rect& window, View2D<const real> y_mag,
                                             FramedVolume& grad_out, MultisliceWorkspace& ws,
                                             View2D<cplx>* probe_grad_out) const {
  PTYCHO_REQUIRE(grad_out.frame.contains(window), "gradient frame must contain the window");
  PTYCHO_REQUIRE(grad_out.slices() == volume.slices(), "gradient slice count mismatch");

  forward(probe, volume, window, ws);

  // One magnitude per pixel feeds both the cost term (in double, the
  // accumulation cost_from_far runs) and the seed
  //   g_far = 2 (|Psi| - |y|) * Psi / |Psi|  (Wirtinger gradient of f).
  const auto n = static_cast<index_t>(grid_.probe_n);
  double cost_value = 0.0;
  for (index_t y = 0; y < n; ++y) {
    const real* ym = y_mag.row(y);
    const cplx* f = ws.far.row(y);
    cplx* g = ws.grad.row(y);
    for (index_t x = 0; x < n; ++x) {
      const double far_mag = far_magnitude(f[x]);
      const double diff = far_mag - static_cast<double>(ym[x]);
      cost_value += diff * diff;
      const real mag = seed_from_far(far_mag, f[x]);
      if (mag > real(1e-20)) {
        g[x] = real(2) * (mag - ym[x]) / mag * f[x];
      } else {
        // At a zero of Psi the cost is not differentiable; subgradient 0
        // keeps the update bounded (same convention as PIE-family codes).
        g[x] = cplx{};
      }
    }
  }

  // Back through the unitary far-field transform: the adjoint of (1/n)*F
  // is (1/n)*F^H = n * inverse. The combined factor rides in the inverse's
  // last pass (n^2 * 1/n collapses to n, exact for the power-of-two probe
  // windows).
  //
  // Fast tier: the adjoint at the last slice starts with a forward FFT
  // that exactly undoes this inverse, so the tier folds the pair into
  // grad = n * F^-1(conj(H) .* grad_far) — the mirror of the roundtrip
  // elided in forward(). Strict replays the composed sequence bitwise.
  const index_t slices = volume.slices();
  const bool fast_spectral =
      backend::active_precision() == backend::Precision::kFast && slices > 0;
  const backend::Kernels& kern = backend::kernels();
  if (fast_spectral) {
    const auto lanes = static_cast<usize>(n) * static_cast<usize>(n);
    kern.cmul_conj_lanes(ws.grad.data(), ws.grad.data(), propagator_.kernel().data(), lanes);
  }
  propagator_.fft().inverse_scale(ws.grad.view(), cplx(static_cast<real>(grid_.probe_n), 0));

  const real sigma = config_.sigma;
  for (index_t s = slices - 1; s >= 0; --s) {
    // Back through the propagator; at the last slice the fast tier already
    // applied conj(H) spectrally above.
    if (!fast_spectral || s + 1 < slices) propagator_.apply_adjoint(ws.grad.view());
    const auto us = static_cast<usize>(s);
    View2D<const cplx> psi_in = ws.psi_in[us].view();
    View2D<const cplx> trans = slice_transmittance(volume, window, ws, s);
    View2D<cplx> g_slice = grad_out.window(s, window);
    // gt = conj(psi_in) .* g ; gV = gt (transmittance) or conj(i sigma t) .* gt.
    for (index_t y = 0; y < n; ++y) {
      const cplx* pi_row = psi_in.row(y);
      const cplx* t_row = trans.row(y);
      cplx* g_row = ws.grad.row(y);
      cplx* out_row = g_slice.row(y);
      const auto cols = static_cast<usize>(n);
      if (config_.model == ObjectModel::kTransmittance) {
        kern.cmul_conj_acc_lanes(out_row, g_row, pi_row, cols);
        // Continue the chain: g_psi = conj(t) .* g.
        kern.cmul_conj_lanes(g_row, g_row, t_row, cols);
      } else {
        kern.potential_backprop_lanes(out_row, g_row, pi_row, t_row, sigma, cols);
      }
    }
  }
  // After the loop ws.grad holds the gradient with respect to psi_0 — the
  // probe wavefield itself.
  if (probe_grad_out != nullptr) {
    add(ws.grad.view(), *probe_grad_out);
  }
  return cost_value;
}

}  // namespace ptycho
