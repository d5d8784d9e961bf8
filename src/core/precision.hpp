// Engine-wide precision policy: which numerics tier the backend kernels
// run at. Parsed from --precision, carried by ExecOptions; it is the only
// numerics option (the kernel table's ISA always comes from CPU
// detection).
//
//   strict  — the bitwise-deterministic no-FMA f32 path (default).
//   fast    — FMA kernel tables + spectral roundtrip elision in the
//             multislice operator (the far-field F·F⁻¹ pairs, see
//             physics/multislice.cpp). Both tiers read the same f32
//             frames and keep the same f32 transmittance cache.
//
// Strict-tier guarantees (bitwise identity across backends, thread
// counts, transports) are untouched by this knob at its default.
// The fast tier is tolerance-gated: cost trajectories must stay within a
// relative epsilon of strict (see convergence.hpp and the README
// "Precision tiers" section); checkpoints always serialize f32 state, so
// runs restore across tiers freely.
#pragma once

#include <string_view>

#include "backend/kernels.hpp"
#include "tensor/compact.hpp"

namespace ptycho {

struct PrecisionPolicy {
  backend::Precision tier = backend::Precision::kStrict;
  /// Accepted and ignored: always kNone, read by nothing in the engine.
  /// It stays only because bench/e2e/bench_layers.cpp passes it to
  /// GradientEngine::make_workspace.
  compact::Format storage = compact::Format::kNone;

  [[nodiscard]] bool fast() const { return tier == backend::Precision::kFast; }

  friend bool operator==(const PrecisionPolicy& a, const PrecisionPolicy& b) {
    return a.tier == b.tier;
  }
};

/// Parse "strict" | "fast" ("" means strict). Throws on anything else
/// (flag values are user input; fail loudly, not quietly strict).
[[nodiscard]] PrecisionPolicy parse_precision(std::string_view spec);

/// Apply the tier to the process-wide backend dispatch.
void apply_precision(const PrecisionPolicy& policy);

}  // namespace ptycho
