// Shared fixtures: cached tiny datasets so each test binary builds its
// synthetic data once.
#pragma once

#include <limits>

#include "data/simulate.hpp"

namespace ptycho::testing {

/// Tiny noiseless dataset (32-px probe, 6x6 scan, 3 slices) — seconds to
/// reconstruct, used by solver/integration tests.
inline const Dataset& tiny_dataset() {
  static const Dataset dataset = [] {
    return make_synthetic_dataset(repro_tiny_spec());
  }();
  return dataset;
}

/// Same geometry but with Poisson shot noise at a moderate dose.
inline const Dataset& tiny_noisy_dataset() {
  static const Dataset dataset = [] {
    AcquisitionParams acq;
    acq.dose_electrons = 1.0e6;
    return make_synthetic_dataset(repro_tiny_spec(), SpecimenParams{}, acq);
  }();
  return dataset;
}

/// A potential-model tiny dataset and a warm start whose absorption
/// exp(-sigma * Im V) is exp(12) ~ 1.6e5 at the field's centre. From it a
/// strict full-batch run's cost reaches ~1e45 at iteration 2, past f32's
/// range but finite in double, serial and tiled alike. `nan` is the same
/// warm start with a NaN at that voxel: its first cost is NaN in any
/// precision.
struct AbsorbingWarmStart {
  Dataset dataset;
  FramedVolume warm;
  FramedVolume nan;
};

inline const AbsorbingWarmStart& absorbing_warm_start() {
  static const AbsorbingWarmStart start = [] {
    DatasetSpec spec = repro_tiny_spec();
    spec.model.model = ObjectModel::kPotential;
    AbsorbingWarmStart s{make_synthetic_dataset(spec), {}, {}};
    const Rect field = s.dataset.field();
    s.warm = FramedVolume(spec.slices, field);
    s.warm.data(0, field.h / 2, field.w / 2) = cplx(real(0), real(-12) / spec.model.sigma);
    s.nan = s.warm.clone();
    s.nan.data(0, field.h / 2, field.w / 2) = cplx(std::numeric_limits<real>::quiet_NaN(), 0);
    return s;
  }();
  return start;
}

}  // namespace ptycho::testing
