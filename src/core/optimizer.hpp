// Gradient-descent update rules shared by all solvers.
#pragma once

#include "tensor/framed.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

/// How tiles incorporate gradients (Alg. 1 variants; see DESIGN.md Sec. 5).
enum class UpdateMode {
  /// The paper's Alg. 1: immediate per-probe SGD updates (step 8) plus the
  /// delayed accumulated-gradient update after each pass (steps 14-15).
  kSgd,
  /// Full-batch: gradients only accumulate during a sweep; the single
  /// update per pass uses the exact total gradient. In this mode the
  /// decomposed solver is bit-equivalent (up to fp reassociation) to the
  /// serial solver — the central correctness property.
  kFullBatch,
};

[[nodiscard]] const char* to_string(UpdateMode mode);

/// V[region] -= step * grad[region] (per slice; frames must contain region).
void apply_gradient(FramedVolume& volume, const FramedVolume& grad, const Rect& region,
                    real step);

/// The SGD per-probe update in one row-by-row pass over `region`:
/// accbuf += grad, then V -= step * grad on the same row, with the
/// per-element operations of AccumulationBuffer::accumulate followed by
/// apply_gradient (bitwise identical to that pair) and one revision bump.
void accumulate_and_apply_gradient(FramedVolume& accbuf, FramedVolume& volume,
                                   const FramedVolume& grad, const Rect& region, real step);

}  // namespace ptycho
