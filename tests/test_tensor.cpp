// Unit tests for src/tensor: rects, arrays, views, region ops, framed
// volumes and message (de)serialization.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "tensor/framed.hpp"
#include "tensor/ops.hpp"
#include "tensor/region.hpp"

namespace ptycho {
namespace {

TEST(Rect, BasicAccessors) {
  const Rect r{2, 3, 4, 5};
  EXPECT_EQ(r.y1(), 6);
  EXPECT_EQ(r.x1(), 8);
  EXPECT_EQ(r.area(), 20);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect{}.empty());
  EXPECT_EQ(Rect{}.area(), 0);
}

TEST(Rect, ContainsPointAndRect) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(0, 0));
  EXPECT_TRUE(r.contains(9, 9));
  EXPECT_FALSE(r.contains(10, 0));
  EXPECT_FALSE(r.contains(0, -1));
  EXPECT_TRUE(r.contains(Rect{2, 2, 8, 8}));
  EXPECT_FALSE(r.contains(Rect{2, 2, 9, 8}));
  EXPECT_TRUE(r.contains(Rect{}));  // empty rect is inside everything
}

TEST(Rect, Intersection) {
  EXPECT_EQ(intersect(Rect{0, 0, 4, 4}, Rect{2, 2, 4, 4}), (Rect{2, 2, 2, 2}));
  EXPECT_TRUE(intersect(Rect{0, 0, 2, 2}, Rect{2, 2, 2, 2}).empty());
  EXPECT_TRUE(intersect(Rect{0, 0, 2, 2}, Rect{5, 5, 1, 1}).empty());
  // Intersection is commutative.
  EXPECT_EQ(intersect(Rect{1, 1, 5, 7}, Rect{3, 0, 2, 3}),
            intersect(Rect{3, 0, 2, 3}, Rect{1, 1, 5, 7}));
}

TEST(Rect, BoundingUnionAndDilate) {
  EXPECT_EQ(bounding_union(Rect{0, 0, 2, 2}, Rect{4, 4, 2, 2}), (Rect{0, 0, 6, 6}));
  EXPECT_EQ(bounding_union(Rect{}, Rect{1, 1, 2, 2}), (Rect{1, 1, 2, 2}));
  EXPECT_EQ(dilate(Rect{2, 2, 2, 2}, 1), (Rect{1, 1, 4, 4}));
}

TEST(Rect, ClipAndOverlaps) {
  EXPECT_EQ(clip(Rect{-2, -2, 5, 5}, Rect{0, 0, 10, 10}), (Rect{0, 0, 3, 3}));
  EXPECT_TRUE(overlaps(Rect{0, 0, 3, 3}, Rect{2, 2, 3, 3}));
  EXPECT_FALSE(overlaps(Rect{0, 0, 2, 2}, Rect{2, 0, 2, 2}));
}

TEST(Rect, Shifted) {
  EXPECT_EQ((Rect{1, 2, 3, 4}).shifted(10, 20), (Rect{11, 22, 3, 4}));
}

TEST(Array2D, ConstructFillIndex) {
  CArray2D a(3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.size(), 12);
  EXPECT_EQ(a(1, 2), cplx{});
  a(1, 2) = cplx(5, -1);
  EXPECT_EQ(a(1, 2), cplx(5, -1));
  a.fill(cplx(2, 2));
  EXPECT_EQ(a(0, 0), cplx(2, 2));
  EXPECT_EQ(a(2, 3), cplx(2, 2));
}

TEST(Array2D, MoveSemantics) {
  CArray2D a(2, 2);
  a(0, 0) = cplx(1, 0);
  CArray2D b = std::move(a);
  EXPECT_EQ(b(0, 0), cplx(1, 0));
  CArray2D c;
  c = std::move(b);
  EXPECT_EQ(c(0, 0), cplx(1, 0));
}

TEST(Array2D, CloneIsDeep) {
  CArray2D a(2, 2);
  a(0, 0) = cplx(3, 0);
  CArray2D b = a.clone();
  b(0, 0) = cplx(7, 0);
  EXPECT_EQ(a(0, 0), cplx(3, 0));
}

TEST(Array3D, SliceViews) {
  CArray3D v(3, 4, 5);
  v(2, 1, 3) = cplx(9, 9);
  View2D<cplx> s2 = v.slice(2);
  EXPECT_EQ(s2(1, 3), cplx(9, 9));
  s2(0, 0) = cplx(1, 1);
  EXPECT_EQ(v(2, 0, 0), cplx(1, 1));
  EXPECT_THROW((void)v.slice(3), Error);
}

TEST(View2D, SubViewAddressing) {
  CArray2D a(6, 6);
  for (index_t y = 0; y < 6; ++y) {
    for (index_t x = 0; x < 6; ++x) a(y, x) = cplx(static_cast<real>(y * 10 + x), 0);
  }
  View2D<cplx> sub = a.sub(2, 3, 3, 2);
  EXPECT_EQ(sub.rows(), 3);
  EXPECT_EQ(sub.cols(), 2);
  EXPECT_EQ(sub(0, 0), cplx(23, 0));
  EXPECT_EQ(sub(2, 1), cplx(44, 0));
  EXPECT_FALSE(sub.contiguous());
  EXPECT_THROW((void)a.sub(4, 4, 3, 3), Error);
}

TEST(Ops, CopyAddAxpyScale) {
  CArray2D a(2, 3);
  CArray2D b(2, 3);
  a.fill(cplx(2, 1));
  copy(a.view(), b.view());
  EXPECT_EQ(b(1, 2), cplx(2, 1));
  add(a.view(), b.view());
  EXPECT_EQ(b(0, 0), cplx(4, 2));
  axpy(cplx(-1, 0), a.view(), b.view());
  EXPECT_EQ(b(0, 0), cplx(2, 1));
  scale(cplx(0, 1), b.view());
  EXPECT_EQ(b(0, 0), cplx(-1, 2));
  fill(b.view(), cplx{});
  EXPECT_EQ(b(1, 1), cplx{});
}

TEST(Ops, ShapeMismatchThrows) {
  CArray2D a(2, 3);
  CArray2D b(3, 2);
  EXPECT_THROW(copy(a.view(), b.view()), Error);
  EXPECT_THROW(add(a.view(), b.view()), Error);
}

TEST(Ops, Multiply) {
  CArray2D a(1, 2);
  CArray2D b(1, 2);
  a(0, 0) = cplx(0, 1);
  a(0, 1) = cplx(2, 0);
  b.fill(cplx(1, 1));
  multiply_inplace(a.view(), b.view());
  EXPECT_EQ(b(0, 0), cplx(-1, 1));
  EXPECT_EQ(b(0, 1), cplx(2, 2));
}

TEST(Ops, Reductions) {
  CArray2D a(2, 2);
  a(0, 0) = cplx(3, 4);  // |.|^2 = 25
  a(1, 1) = cplx(0, 2);  // |.|^2 = 4
  EXPECT_DOUBLE_EQ(norm_sq(a.view()), 29.0);
  EXPECT_DOUBLE_EQ(max_abs(a.view()), 5.0);
  CArray2D b(2, 2);
  b(0, 0) = cplx(1, 0);
  const auto d = dot(a.view(), b.view());
  EXPECT_DOUBLE_EQ(d.real(), 3.0);
  EXPECT_DOUBLE_EQ(d.imag(), -4.0);  // conj(3+4i)*1
  EXPECT_DOUBLE_EQ(diff_norm_sq(a.view(), a.view()), 0.0);
  EXPECT_GT(diff_norm_sq(a.view(), b.view()), 0.0);
}

TEST(Framed, GlobalAddressing) {
  FramedVolume v(2, Rect{10, 20, 4, 5});
  v.at_global(1, 12, 24) = cplx(6, 0);
  EXPECT_EQ(v.data(1, 2, 4), cplx(6, 0));
  View2D<cplx> win = v.window(1, Rect{12, 24, 1, 1});
  EXPECT_EQ(win(0, 0), cplx(6, 0));
  EXPECT_THROW((void)v.window(0, Rect{9, 20, 2, 2}), Error);
}

TEST(Framed, RegionAddCopy) {
  FramedVolume a(2, Rect{0, 0, 4, 4});
  FramedVolume b(2, Rect{2, 2, 4, 4});
  a.data.fill(cplx(1, 0));
  b.data.fill(cplx(2, 0));
  const Rect overlap = intersect(a.frame, b.frame);
  EXPECT_EQ(overlap, (Rect{2, 2, 2, 2}));
  add_region(a, b, overlap);
  EXPECT_EQ(b.at_global(0, 2, 2), cplx(3, 0));
  EXPECT_EQ(b.at_global(0, 4, 4), cplx(2, 0));  // outside overlap untouched
  copy_region(b, a, overlap);
  EXPECT_EQ(a.at_global(1, 3, 3), cplx(3, 0));
  EXPECT_EQ(a.at_global(1, 0, 0), cplx(1, 0));
}

TEST(Framed, PackUnpackRoundtrip) {
  FramedVolume src(3, Rect{0, 0, 5, 5});
  for (index_t s = 0; s < 3; ++s) {
    for (index_t y = 0; y < 5; ++y) {
      for (index_t x = 0; x < 5; ++x) {
        src.data(s, y, x) = cplx(static_cast<real>(s * 100 + y * 10 + x), 1);
      }
    }
  }
  const Rect region{1, 2, 3, 2};
  const std::vector<cplx> payload = pack_region(src, region);
  EXPECT_EQ(payload.size(), static_cast<usize>(3 * 3 * 2));

  FramedVolume dst(3, Rect{0, 0, 5, 5});
  unpack_replace_region(payload, dst, region);
  for (index_t s = 0; s < 3; ++s) {
    for (index_t y = 1; y < 4; ++y) {
      for (index_t x = 2; x < 4; ++x) EXPECT_EQ(dst.data(s, y, x), src.data(s, y, x));
    }
  }
  EXPECT_EQ(dst.data(0, 0, 0), cplx{});

  unpack_add_region(payload, dst, region);
  EXPECT_EQ(dst.data(1, 1, 2), src.data(1, 1, 2) + src.data(1, 1, 2));

  std::vector<cplx> wrong(payload.size() + 1);
  EXPECT_THROW(unpack_replace_region(wrong, dst, region), Error);
}

}  // namespace
}  // namespace ptycho
