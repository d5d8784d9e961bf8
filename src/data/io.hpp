// Output helpers: PGM images (Fig. 8 artifact panels), CSV series
// (Fig. 7/9 data), and raw binary volume snapshots.
#pragma once

#include <string>
#include <vector>

#include "tensor/framed.hpp"

namespace ptycho::io {

/// Write a grayscale 8-bit PGM of the view, linearly mapping
/// [min, max] -> [0, 255]; if min == max the image is mid-gray.
void write_pgm(const std::string& path, View2D<const real> image);

/// Phase of a complex slice as a PGM (useful for atomic-lattice views).
void write_phase_pgm(const std::string& path, View2D<const cplx> slice);

/// CSV writer: header row then data rows.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void header(const std::vector<std::string>& names);
  void row(const std::vector<double>& values);

 private:
  struct Impl;
  Impl* impl_;
};

/// Raw little-endian dump/load of a framed volume (frame + slices + data).
/// save_volume is write_volume_region with region == field == the frame.
void save_volume(const std::string& path, const FramedVolume& volume);
/// Write `region` of `volume` (all slices) into the volume file at `path`
/// holding a volume.slices() x `field` volume: the header, then each region
/// row at the offset `field` gives it. The file is opened without
/// truncation, so writers of disjoint regions that tile `field` may run
/// concurrently, in any order and in any process, with no coordination;
/// exactly one of them passes `size_file`, which cuts the file to the
/// volume's length (stale bytes of an older, longer file go).
void write_volume_region(const std::string& path, const Rect& field,
                         const FramedVolume& volume, const Rect& region, bool size_file);
[[nodiscard]] FramedVolume load_volume(const std::string& path);
/// Load only `window` of the volume file, all slices: one read per window
/// row, or per slice when the window spans whole rows. The window must be
/// non-empty and lie inside the file's frame.
[[nodiscard]] FramedVolume load_volume(const std::string& path, const Rect& window);

}  // namespace ptycho::io

#include "data/dataset.hpp"

namespace ptycho::io {

/// Serialize a dataset (spec + measurement stack; the probe is rebuilt
/// from the spec on load, the ground truth is not persisted). Enables
/// simulate-once / reconstruct-many workflows and checkpoint-resume runs
/// from the CLI tool.
void save_dataset(const std::string& path, const Dataset& dataset);
[[nodiscard]] Dataset load_dataset(const std::string& path);
/// Load the header and only the diffraction frames of the listed probe
/// ids; every other frame stays 0x0. The header is validated exactly as by
/// the full load, including that the file holds every frame it declares.
/// An id outside the scan is an error; `{}` loads the header alone.
[[nodiscard]] Dataset load_dataset(const std::string& path, const std::vector<index_t>& frames);

}  // namespace ptycho::io
