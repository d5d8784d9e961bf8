// Dataset container: scan pattern + measured diffraction magnitudes.
//
// Mirrors the paper's Table I structure: a dataset is a stack of
// probe_n x probe_n diffraction measurements (one per probe location) plus
// the reconstruction volume geometry. Includes the paper-scale dataset
// descriptors used by the memory model and Table I harness.
#pragma once

#include <string>
#include <vector>

#include "physics/grid.hpp"
#include "physics/multislice.hpp"
#include "physics/probe.hpp"
#include "physics/scan.hpp"
#include "tensor/framed.hpp"

namespace ptycho {

/// Everything needed to build / describe a dataset.
struct DatasetSpec {
  std::string name = "synthetic";
  ScanParams scan;
  OpticsGrid grid;
  ProbeParams probe;
  index_t slices = 8;
  MultisliceConfig model;
};

/// A ptychography dataset ready for reconstruction.
struct Dataset {
  DatasetSpec spec;
  ScanPattern scan;
  Probe probe;
  /// |y_i| — Fourier-magnitude measurements, one per probe location, in
  /// scan (time) order. A partial load (io::load_dataset with a frame
  /// list) leaves the frames it did not read 0x0.
  std::vector<RArray2D> measurements;
  /// Ground-truth volume when the dataset is simulated (empty otherwise).
  FramedVolume ground_truth;

  Dataset(DatasetSpec s, ScanPattern sc, Probe p)
      : spec(std::move(s)), scan(std::move(sc)), probe(std::move(p)) {}

  [[nodiscard]] index_t probe_count() const { return scan.count(); }
  [[nodiscard]] Rect field() const { return scan.field(); }

  /// The diffraction frame of probe `id`, read in place: the sweeps read
  /// every frame through it. Throws ptycho::Error naming the probe when
  /// its frame was not loaded.
  [[nodiscard]] const RArray2D& frame(index_t id) const;

  /// Bytes of the listed probes' frames: what a rank reading them in place
  /// charges its memory tracker. Throws like frame() for the first probe
  /// whose frame was not loaded.
  [[nodiscard]] usize frame_bytes(const std::vector<index_t>& probe_ids) const;

  /// Bytes of the measurement stack (real magnitudes).
  [[nodiscard]] usize measurement_bytes() const;

  /// Bytes of a full (undecomposed) complex reconstruction volume.
  [[nodiscard]] usize volume_bytes() const;
};

/// Paper-scale dataset descriptor (Table I rows) — used for Table I output
/// and the analytic memory model; never materialized in RAM.
struct PaperDataset {
  std::string name;
  index_t probes = 0;       ///< number of probe locations
  index_t meas_n = 0;       ///< diffraction frames are meas_n x meas_n
  index_t scan_rows = 0;    ///< scan grid layout (rows x cols == probes)
  index_t scan_cols = 0;
  index_t vol_y = 0;        ///< reconstruction extent (pixels)
  index_t vol_x = 0;
  index_t slices = 0;
  double dx_pm = 10.0;
  double dz_pm = 125.0;

  [[nodiscard]] usize measurement_bytes() const;
  [[nodiscard]] usize volume_bytes() const;
  /// Raster step (px) implied by scan layout and volume extent.
  [[nodiscard]] index_t step_px() const;
};

/// The two Lead Titanate datasets of Table I.
[[nodiscard]] PaperDataset paper_small_dataset();
[[nodiscard]] PaperDataset paper_large_dataset();

/// Scaled-down repro specs (DESIGN.md Sec. 2) that run on one host.
[[nodiscard]] DatasetSpec repro_small_spec();
[[nodiscard]] DatasetSpec repro_large_spec();
/// Tiny spec for unit tests (seconds, not minutes).
[[nodiscard]] DatasetSpec repro_tiny_spec();

}  // namespace ptycho
