#include "core/optimizer.hpp"

#include "backend/kernels.hpp"

namespace ptycho {

const char* to_string(UpdateMode mode) {
  switch (mode) {
    case UpdateMode::kSgd: return "sgd";
    case UpdateMode::kFullBatch: return "full-batch";
  }
  return "?";
}

void apply_gradient(FramedVolume& volume, const FramedVolume& grad, const Rect& region,
                    real step) {
  if (region.empty()) return;
  for (index_t s = 0; s < volume.slices(); ++s) {
    axpy(cplx(-step, 0), grad.window(s, region), volume.window(s, region));
  }
  // Invalidate any cached per-slice transmittance derived from this volume.
  volume.bump_revision();
}

void accumulate_and_apply_gradient(FramedVolume& accbuf, FramedVolume& volume,
                                   const FramedVolume& grad, const Rect& region, real step) {
  if (region.empty()) return;
  PTYCHO_CHECK(grad.slices() == accbuf.slices() && grad.slices() == volume.slices(),
               "slice count mismatch in accumulate_and_apply_gradient");
  const backend::Kernels& kern = backend::kernels();
  const cplx alpha(-step, 0);
  const auto cols = static_cast<usize>(region.w);
  for (index_t s = 0; s < volume.slices(); ++s) {
    const View2D<const cplx> g = grad.window(s, region);
    const View2D<cplx> acc = accbuf.window(s, region);
    const View2D<cplx> v = volume.window(s, region);
    for (index_t y = 0; y < region.h; ++y) {
      const cplx* g_row = g.row(y);
      cplx* acc_row = acc.row(y);
      for (usize x = 0; x < cols; ++x) acc_row[x] += g_row[x];
      kern.axpy_lanes(v.row(y), g_row, alpha, cols);
    }
  }
  volume.bump_revision();
}

}  // namespace ptycho
