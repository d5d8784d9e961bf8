// AccBuf_k of Alg. 1: the accumulated-gradient buffer each rank keeps.
#pragma once

#include "tensor/framed.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

class AccumulationBuffer {
 public:
  AccumulationBuffer(index_t slices, const Rect& frame) : volume_(slices, frame) {}

  [[nodiscard]] FramedVolume& volume() { return volume_; }
  [[nodiscard]] const FramedVolume& volume() const { return volume_; }
  [[nodiscard]] const Rect& frame() const { return volume_.frame; }

  /// AccBuf += g over `region` (Alg. 1 step 7).
  void accumulate(const FramedVolume& grad, const Rect& region) {
    add_region(grad, volume_, region);
  }

  /// AccBuf <- 0 (Alg. 1 step 16).
  void reset() { volume_.data.fill(cplx{}); }

 private:
  FramedVolume volume_;
};

}  // namespace ptycho
