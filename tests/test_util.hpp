// Shared fixtures: cached tiny datasets so each test binary builds its
// synthetic data once.
#pragma once

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
/// exp(-sigma * Im V) is exp(12) ~ 1.6e5 at the field's centre. From it the
/// strict 2-rank GD full-batch run reaches cost inf at iteration 2; the
/// serial run stays finite.
struct AbsorbingWarmStart {
  Dataset dataset;
  FramedVolume warm;
};

inline const AbsorbingWarmStart& absorbing_warm_start() {
  static const AbsorbingWarmStart start = [] {
    DatasetSpec spec = repro_tiny_spec();
    spec.model.model = ObjectModel::kPotential;
    AbsorbingWarmStart s{make_synthetic_dataset(spec), {}};
    const Rect field = s.dataset.field();
    s.warm = FramedVolume(spec.slices, field);
    s.warm.data(0, field.h / 2, field.w / 2) = cplx(real(0), real(-12) / spec.model.sigma);
    return s;
  }();
  return start;
}

}  // namespace ptycho::testing
