// Element-wise and region operations on views and framed tensors.
//
// These are the kernels the decomposition layer is made of: copy / add /
// replace of rectangular regions (gradient accumulation and halo pastes),
// axpy-style updates (gradient descent steps), reductions (cost values,
// norms) and message (de)serialization of framed sub-volumes.
#pragma once

#include <vector>

#include "tensor/framed.hpp"

namespace ptycho {

// ---- view-level region ops -------------------------------------------------

/// dst := src (shapes must match).
void copy(View2D<const cplx> src, View2D<cplx> dst);

/// dst += src.
void add(View2D<const cplx> src, View2D<cplx> dst);

/// dst += alpha * src.
void axpy(cplx alpha, View2D<const cplx> src, View2D<cplx> dst);

/// dst *= alpha.
void scale(cplx alpha, View2D<cplx> dst);

/// dst := value.
void fill(View2D<cplx> dst, cplx value);

/// Hadamard: dst(i) *= src(i).
void multiply_inplace(View2D<const cplx> src, View2D<cplx> dst);

// ---- reductions -------------------------------------------------------------

/// Sum of |v|^2 over the view.
[[nodiscard]] double norm_sq(View2D<const cplx> v);

/// Max |v| over the view.
[[nodiscard]] double max_abs(View2D<const cplx> v);

/// Inner product <a, b> = sum conj(a) * b (the adjoint-test pairing).
[[nodiscard]] std::complex<double> dot(View2D<const cplx> a, View2D<const cplx> b);

/// Sum of |a - b|^2 (relative error helpers in tests are built on this).
[[nodiscard]] double diff_norm_sq(View2D<const cplx> a, View2D<const cplx> b);

// ---- framed-volume region ops ----------------------------------------------

/// For each slice: dst[r] += src[r], where r is a global rect contained in
/// both frames.
void add_region(const FramedVolume& src, FramedVolume& dst, const Rect& r);

/// For each slice: dst[r] := src[r].
void copy_region(const FramedVolume& src, FramedVolume& dst, const Rect& r);

// ---- message payload (de)serialization ---------------------------------------

/// Pack global rect `r` (all slices) of `src` into a contiguous buffer laid
/// out slice-major. `r` must lie inside src.frame.
[[nodiscard]] std::vector<cplx> pack_region(const FramedVolume& src, const Rect& r);

/// dst[r] += payload (packed by pack_region with the same rect/slices).
void unpack_add_region(const std::vector<cplx>& payload, FramedVolume& dst, const Rect& r);

/// dst[r] := payload.
void unpack_replace_region(const std::vector<cplx>& payload, FramedVolume& dst, const Rect& r);

}  // namespace ptycho
