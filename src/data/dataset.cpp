#include "data/dataset.hpp"

#include "common/error.hpp"

namespace ptycho {

usize Dataset::measurement_bytes() const {
  usize total = 0;
  for (const auto& m : measurements) total += m.bytes();
  return total;
}

const RArray2D& Dataset::frame(index_t id) const {
  const auto n = static_cast<index_t>(spec.grid.probe_n);
  PTYCHO_CHECK(id >= 0 && static_cast<usize>(id) < measurements.size() &&
                   measurements[static_cast<usize>(id)].rows() == n,
               "the diffraction frame of probe " << id << " was not loaded");
  return measurements[static_cast<usize>(id)];
}

usize Dataset::frame_bytes(const std::vector<index_t>& probe_ids) const {
  usize total = 0;
  for (const index_t id : probe_ids) total += frame(id).bytes();
  return total;
}

usize Dataset::volume_bytes() const {
  const Rect f = field();
  return static_cast<usize>(spec.slices) * static_cast<usize>(f.h) * static_cast<usize>(f.w) *
         sizeof(cplx);
}

usize PaperDataset::measurement_bytes() const {
  return static_cast<usize>(probes) * static_cast<usize>(meas_n) * static_cast<usize>(meas_n) *
         sizeof(real);
}

usize PaperDataset::volume_bytes() const {
  return static_cast<usize>(slices) * static_cast<usize>(vol_y) * static_cast<usize>(vol_x) *
         sizeof(cplx);
}

index_t PaperDataset::step_px() const {
  // vol extent = (rows-1)*step + meas_n (margin-free raster field).
  if (scan_rows <= 1) return meas_n;
  return (vol_y - meas_n) / (scan_rows - 1);
}

PaperDataset paper_small_dataset() {
  PaperDataset d;
  d.name = "Lead Titanate small";
  d.probes = 4158;
  d.meas_n = 1024;
  // 4158 = 63 x 66 (near-square raster); reconstruction 1536^2 x 100.
  d.scan_rows = 63;
  d.scan_cols = 66;
  d.vol_y = 1536;
  d.vol_x = 1536;
  d.slices = 100;
  return d;
}

PaperDataset paper_large_dataset() {
  PaperDataset d;
  d.name = "Lead Titanate large";
  d.probes = 16632;
  d.meas_n = 1024;
  // 16632 = 126 x 132 (near-square raster); reconstruction 3072^2 x 100.
  d.scan_rows = 126;
  d.scan_cols = 132;
  d.vol_y = 3072;
  d.vol_x = 3072;
  d.slices = 100;
  return d;
}

namespace {
DatasetSpec base_spec() {
  DatasetSpec spec;
  spec.grid.probe_n = 64;
  spec.grid.dx_pm = 10.0;
  spec.grid.dz_pm = 125.0;
  spec.grid.wavelength_pm = electron_wavelength_pm(200.0);
  // Scaled defocus so the probe disc occupies a paper-like fraction of the
  // (scaled) window; 30 mrad aperture as acquired.
  spec.probe.aperture_mrad = 30.0;
  spec.probe.defocus_pm = 2000.0;
  spec.scan.probe_n = static_cast<index_t>(spec.grid.probe_n);
  spec.model.model = ObjectModel::kTransmittance;
  return spec;
}
}  // namespace

DatasetSpec repro_small_spec() {
  DatasetSpec spec = base_spec();
  spec.name = "repro-small";
  spec.scan.rows = 15;
  spec.scan.cols = 18;
  spec.scan.step_px = 12;  // 81% linear overlap, paper-like (>70%)
  spec.scan.margin_px = 4;
  spec.slices = 8;
  return spec;
}

DatasetSpec repro_large_spec() {
  DatasetSpec spec = base_spec();
  spec.name = "repro-large";
  spec.scan.rows = 30;
  spec.scan.cols = 36;
  spec.scan.step_px = 12;
  spec.scan.margin_px = 4;
  spec.slices = 8;
  return spec;
}

DatasetSpec repro_tiny_spec() {
  DatasetSpec spec = base_spec();
  spec.name = "repro-tiny";
  spec.grid.probe_n = 32;
  spec.probe.defocus_pm = 1000.0;
  spec.scan.probe_n = 32;
  spec.scan.rows = 6;
  spec.scan.cols = 6;
  spec.scan.step_px = 8;
  spec.scan.margin_px = 2;
  spec.slices = 3;
  return spec;
}

}  // namespace ptycho
