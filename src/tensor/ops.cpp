#include "tensor/ops.hpp"

#include <cmath>

#include "backend/kernels.hpp"

namespace ptycho {

namespace {
void check_same_shape(View2D<const cplx> a, View2D<const cplx> b) {
  PTYCHO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "shape mismatch: " << a.rows() << "x" << a.cols() << " vs " << b.rows() << "x"
                                  << b.cols());
}
}  // namespace

void copy(View2D<const cplx> src, View2D<cplx> dst) {
  check_same_shape(src, dst);
  for (index_t y = 0; y < src.rows(); ++y) {
    const cplx* s = src.row(y);
    cplx* d = dst.row(y);
    std::copy_n(s, static_cast<usize>(src.cols()), d);
  }
}

void add(View2D<const cplx> src, View2D<cplx> dst) {
  check_same_shape(src, dst);
  for (index_t y = 0; y < src.rows(); ++y) {
    const cplx* s = src.row(y);
    cplx* d = dst.row(y);
    for (index_t x = 0; x < src.cols(); ++x) d[x] += s[x];
  }
}

void axpy(cplx alpha, View2D<const cplx> src, View2D<cplx> dst) {
  check_same_shape(src, dst);
  const backend::Kernels& kern = backend::kernels();
  for (index_t y = 0; y < src.rows(); ++y) {
    kern.axpy_lanes(dst.row(y), src.row(y), alpha, static_cast<usize>(src.cols()));
  }
}

void scale(cplx alpha, View2D<cplx> dst) {
  const backend::Kernels& kern = backend::kernels();
  for (index_t y = 0; y < dst.rows(); ++y) {
    cplx* d = dst.row(y);
    kern.scale_lanes(d, d, alpha, static_cast<usize>(dst.cols()));
  }
}

void fill(View2D<cplx> dst, cplx value) {
  for (index_t y = 0; y < dst.rows(); ++y) {
    cplx* d = dst.row(y);
    std::fill_n(d, static_cast<usize>(dst.cols()), value);
  }
}

void multiply_inplace(View2D<const cplx> src, View2D<cplx> dst) {
  check_same_shape(src, dst);
  const backend::Kernels& kern = backend::kernels();
  for (index_t y = 0; y < src.rows(); ++y) {
    cplx* d = dst.row(y);
    kern.cmul_lanes(d, d, src.row(y), static_cast<usize>(src.cols()));
  }
}

double norm_sq(View2D<const cplx> v) {
  double acc = 0.0;
  for (index_t y = 0; y < v.rows(); ++y) {
    const cplx* row = v.row(y);
    for (index_t x = 0; x < v.cols(); ++x) {
      const double re = static_cast<double>(row[x].real());
      const double im = static_cast<double>(row[x].imag());
      acc += re * re + im * im;
    }
  }
  return acc;
}

double max_abs(View2D<const cplx> v) {
  double best = 0.0;
  for (index_t y = 0; y < v.rows(); ++y) {
    const cplx* row = v.row(y);
    for (index_t x = 0; x < v.cols(); ++x) {
      best = std::max(best, static_cast<double>(std::abs(row[x])));
    }
  }
  return best;
}

std::complex<double> dot(View2D<const cplx> a, View2D<const cplx> b) {
  check_same_shape(a, b);
  std::complex<double> acc{0.0, 0.0};
  for (index_t y = 0; y < a.rows(); ++y) {
    const cplx* ra = a.row(y);
    const cplx* rb = b.row(y);
    for (index_t x = 0; x < a.cols(); ++x) {
      acc += std::conj(std::complex<double>(ra[x])) * std::complex<double>(rb[x]);
    }
  }
  return acc;
}

double diff_norm_sq(View2D<const cplx> a, View2D<const cplx> b) {
  check_same_shape(a, b);
  double acc = 0.0;
  for (index_t y = 0; y < a.rows(); ++y) {
    const cplx* ra = a.row(y);
    const cplx* rb = b.row(y);
    for (index_t x = 0; x < a.cols(); ++x) {
      const cplx d = ra[x] - rb[x];
      const double re = static_cast<double>(d.real());
      const double im = static_cast<double>(d.imag());
      acc += re * re + im * im;
    }
  }
  return acc;
}

void add_region(const FramedVolume& src, FramedVolume& dst, const Rect& r) {
  if (r.empty()) return;
  PTYCHO_CHECK(src.slices() == dst.slices(), "slice count mismatch in add_region");
  for (index_t s = 0; s < src.slices(); ++s) {
    add(const_cast<FramedVolume&>(src).window(s, r), dst.window(s, r));
  }
}

void copy_region(const FramedVolume& src, FramedVolume& dst, const Rect& r) {
  if (r.empty()) return;
  PTYCHO_CHECK(src.slices() == dst.slices(), "slice count mismatch in copy_region");
  for (index_t s = 0; s < src.slices(); ++s) {
    copy(const_cast<FramedVolume&>(src).window(s, r), dst.window(s, r));
  }
}

std::vector<cplx> pack_region(const FramedVolume& src, const Rect& r) {
  PTYCHO_CHECK(src.frame.contains(r), "pack_region rect outside frame");
  std::vector<cplx> payload(static_cast<usize>(src.slices() * r.area()));
  usize offset = 0;
  for (index_t s = 0; s < src.slices(); ++s) {
    View2D<const cplx> win = src.window(s, r);
    for (index_t y = 0; y < r.h; ++y) {
      std::copy_n(win.row(y), static_cast<usize>(r.w), payload.data() + offset);
      offset += static_cast<usize>(r.w);
    }
  }
  return payload;
}

void unpack_add_region(const std::vector<cplx>& payload, FramedVolume& dst, const Rect& r) {
  PTYCHO_CHECK(dst.frame.contains(r), "unpack rect outside frame");
  PTYCHO_CHECK(payload.size() == static_cast<usize>(dst.slices() * r.area()),
               "payload size mismatch");
  usize offset = 0;
  for (index_t s = 0; s < dst.slices(); ++s) {
    View2D<cplx> win = dst.window(s, r);
    for (index_t y = 0; y < r.h; ++y) {
      cplx* row = win.row(y);
      for (index_t x = 0; x < r.w; ++x) row[x] += payload[offset + static_cast<usize>(x)];
      offset += static_cast<usize>(r.w);
    }
  }
}

void unpack_replace_region(const std::vector<cplx>& payload, FramedVolume& dst, const Rect& r) {
  PTYCHO_CHECK(dst.frame.contains(r), "unpack rect outside frame");
  PTYCHO_CHECK(payload.size() == static_cast<usize>(dst.slices() * r.area()),
               "payload size mismatch");
  usize offset = 0;
  for (index_t s = 0; s < dst.slices(); ++s) {
    View2D<cplx> win = dst.window(s, r);
    for (index_t y = 0; y < r.h; ++y) {
      std::copy_n(payload.data() + offset, static_cast<usize>(r.w), win.row(y));
      offset += static_cast<usize>(r.w);
    }
  }
}

}  // namespace ptycho
