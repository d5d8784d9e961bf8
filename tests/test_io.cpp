// data/io round-trip coverage: PGM pixel mapping (including the min==max
// mid-gray edge case), phase PGM, CSV output, the raw binary volume
// snapshot read-back, the dataset loader's rejection of corrupt headers,
// and the partial loaders a rank process reads its own frames and
// warm-start window with.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/io.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;

class IoScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ptycho_io_test").string();
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

struct Pgm {
  index_t width = 0;
  index_t height = 0;
  int maxval = 0;
  std::vector<unsigned char> pixels;
};

Pgm read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string magic;
  Pgm pgm;
  in >> magic >> pgm.width >> pgm.height >> pgm.maxval;
  EXPECT_EQ(magic, "P5");
  in.get();  // the single whitespace byte after maxval
  pgm.pixels.resize(static_cast<usize>(pgm.width * pgm.height));
  in.read(reinterpret_cast<char*>(pgm.pixels.data()),
          static_cast<std::streamsize>(pgm.pixels.size()));
  EXPECT_TRUE(in.good()) << "truncated " << path;
  return pgm;
}

TEST_F(IoScratch, PgmMapsMinMaxLinearly) {
  RArray2D image(2, 2);
  image(0, 0) = real(-1);
  image(0, 1) = real(0);
  image(1, 0) = real(1);
  image(1, 1) = real(3);
  io::write_pgm(path("linear.pgm"), image.view());
  const Pgm pgm = read_pgm(path("linear.pgm"));
  ASSERT_EQ(pgm.width, 2);
  ASSERT_EQ(pgm.height, 2);
  EXPECT_EQ(pgm.maxval, 255);
  EXPECT_EQ(pgm.pixels[0], 0u);    // min -> black
  EXPECT_EQ(pgm.pixels[3], 255u);  // max -> white
  // Interior values map linearly: (0 - (-1)) / 4 * 255 = 63.75 -> 63.
  EXPECT_EQ(pgm.pixels[1], 63u);
  EXPECT_EQ(pgm.pixels[2], 127u);
}

TEST_F(IoScratch, PgmConstantImageIsMidGray) {
  RArray2D image(3, 4);
  image.fill(real(7.5));
  io::write_pgm(path("flat.pgm"), image.view());
  const Pgm pgm = read_pgm(path("flat.pgm"));
  ASSERT_EQ(pgm.pixels.size(), 12u);
  for (unsigned char p : pgm.pixels) EXPECT_EQ(p, 128u);
}

TEST_F(IoScratch, PhasePgmSpansThePhaseRange) {
  CArray2D slice(1, 3);
  slice(0, 0) = cplx(1, 0);   // phase 0
  slice(0, 1) = cplx(0, 1);   // phase pi/2
  slice(0, 2) = cplx(-1, 0);  // phase pi
  io::write_phase_pgm(path("phase.pgm"), slice.view());
  const Pgm pgm = read_pgm(path("phase.pgm"));
  ASSERT_EQ(pgm.pixels.size(), 3u);
  EXPECT_EQ(pgm.pixels[0], 0u);    // smallest phase -> black
  EXPECT_EQ(pgm.pixels[2], 255u);  // largest phase -> white
  EXPECT_EQ(pgm.pixels[1], 127u);  // halfway
}

TEST_F(IoScratch, CsvHeaderAndRows) {
  {
    io::CsvWriter csv(path("series.csv"));
    csv.header({"iteration", "cost"});
    csv.row({0, 1.5});
    csv.row({1, 0.25});
    csv.raw_row("2,custom");
  }
  std::ifstream in(path("series.csv"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "iteration,cost");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1.5");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0.25");
  std::getline(in, line);
  EXPECT_EQ(line, "2,custom");
  EXPECT_FALSE(std::getline(in, line));
}

TEST_F(IoScratch, VolumeRoundTripPreservesFrameAndData) {
  FramedVolume volume(2, Rect{-3, 5, 4, 6});
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 4; ++y) {
      for (index_t x = 0; x < 6; ++x) {
        volume.data(s, y, x) = cplx(static_cast<real>(s * 100 + y * 10 + x),
                                    static_cast<real>(-x));
      }
    }
  }
  io::save_volume(path("vol.bin"), volume);
  const FramedVolume loaded = io::load_volume(path("vol.bin"));
  ASSERT_EQ(loaded.frame, volume.frame);
  ASSERT_EQ(loaded.slices(), 2);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 4; ++y) {
      for (index_t x = 0; x < 6; ++x) {
        EXPECT_EQ(loaded.data(s, y, x), volume.data(s, y, x));
      }
    }
  }
}

TEST_F(IoScratch, VolumeLoaderRejectsGarbage) {
  {
    std::ofstream out(path("junk.bin"), std::ios::binary);
    out << "this is not a volume";
  }
  EXPECT_THROW((void)io::load_volume(path("junk.bin")), Error);
}

// A volume file whose header declares `header` (y0, x0, h, w, slices)
// and which holds `payload_bytes` of voxel data after it; returns its path.
std::string forged_volume(const std::string& file, const std::array<std::int64_t, 5>& header,
                          std::size_t payload_bytes) {
  const std::uint64_t magic = 0x50545943484F564CULL;  // "PTYCHOVL"
  std::ofstream out(file, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(sizeof(std::int64_t) * header.size()));
  const std::vector<char> payload(payload_bytes, 0);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return file;
}

TEST_F(IoScratch, VolumeLoaderAcceptsAForgedButConsistentHeader) {
  // The control for the rejections below: the same writer, honest sizes.
  const FramedVolume v =
      io::load_volume(forged_volume(path("ok.bin"), {-3, 5, 4, 6, 2}, 2 * 4 * 6 * sizeof(cplx)));
  EXPECT_EQ(v.frame, (Rect{-3, 5, 4, 6}));
  EXPECT_EQ(v.slices(), 2);
}

TEST_F(IoScratch, VolumeLoaderRejectsATruncatedPayload) {
  const std::size_t bytes = 2 * 4 * 6 * sizeof(cplx);
  EXPECT_THROW((void)io::load_volume(forged_volume(path("cut.bin"), {0, 0, 4, 6, 2}, bytes - 1)),
               Error);
}

TEST_F(IoScratch, VolumeLoaderRejectsNegativeExtents) {
  using Header = std::array<std::int64_t, 5>;
  for (const Header& header : {Header{0, 0, -4, 6, 2}, Header{0, 0, 4, -6, 2},
                               Header{0, 0, 4, 6, -2}}) {
    EXPECT_THROW((void)io::load_volume(forged_volume(path("neg.bin"), header, 4096)), Error)
        << header[2] << "x" << header[3] << "x" << header[4];
  }
}

TEST_F(IoScratch, VolumeLoaderRejectsZeroSlicesAndEmptyFrames) {
  EXPECT_THROW((void)io::load_volume(forged_volume(path("zero.bin"), {0, 0, 4, 6, 0}, 0)), Error);
  EXPECT_THROW((void)io::load_volume(forged_volume(path("zero.bin"), {0, 0, 0, 6, 2}, 0)), Error);
}

TEST_F(IoScratch, VolumeLoaderRejectsInflatedHeaders) {
  // Sizes whose byte count overflows 64 bits, one that does not overflow
  // but far exceeds the file, and a frame whose far corner overflows.
  EXPECT_THROW((void)io::load_volume(forged_volume(
                   path("big.bin"), {0, 0, std::int64_t{1} << 31, std::int64_t{1} << 31,
                                     std::int64_t{1} << 31}, 64)),
               Error);
  EXPECT_THROW(
      (void)io::load_volume(forged_volume(path("big.bin"), {0, 0, 1 << 20, 1 << 20, 4}, 64)),
      Error);
  EXPECT_THROW((void)io::load_volume(forged_volume(path("big.bin"), {INT64_MAX, 0, 1, 1, 1},
                                                   sizeof(cplx))),
               Error);
}

// A 2-slice volume at `frame` whose every voxel is distinct.
FramedVolume patterned_volume(const Rect& frame) {
  FramedVolume volume(2, frame);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < frame.h; ++y) {
      for (index_t x = 0; x < frame.w; ++x) {
        volume.data(s, y, x) = cplx(static_cast<real>(s * 1000 + y * 10 + x), real(0.5));
      }
    }
  }
  return volume;
}

bool bytes_equal(const FramedVolume& a, const FramedVolume& b) {
  return a.frame == b.frame && a.slices() == b.slices() &&
         std::memcmp(a.data.data(), b.data.data(), a.data.bytes()) == 0;
}

TEST_F(IoScratch, VolumeWindowLoadEqualsACopyOfTheFullLoad) {
  const Rect frame{-3, 5, 6, 7};
  io::save_volume(path("vol.bin"), patterned_volume(frame));
  const FramedVolume full = io::load_volume(path("vol.bin"));
  // An interior window (one read per row), a band of whole rows (one read
  // per slice), a single voxel at the far corner and the whole frame.
  for (const Rect& window : {Rect{-2, 6, 3, 4}, Rect{-1, 5, 2, 7}, Rect{2, 11, 1, 1}, frame}) {
    FramedVolume expected(2, window);
    copy_region(full, expected, window);
    EXPECT_TRUE(bytes_equal(io::load_volume(path("vol.bin"), window), expected)) << window;
  }
}

TEST_F(IoScratch, RegionWritesTileTheFileOverAStaleLongerOne) {
  const Rect field{-3, 5, 6, 7};
  const FramedVolume full = patterned_volume(field);
  io::save_volume(path("expected.bin"), full);
  std::ifstream expected_in(path("expected.bin"), std::ios::binary);
  const std::string expected((std::istreambuf_iterator<char>(expected_in)),
                             std::istreambuf_iterator<char>());

  // A 2x2 partition (tile frames one voxel wider than the owned regions,
  // so each region is written row by row) and a 2x1 one (frames and
  // regions span whole rows: one write per slice), each written in a
  // shuffled order. Region 0 sizes the file, as rank 0 does in a run.
  struct Case {
    std::vector<Rect> owned;
    std::vector<usize> order;
  };
  const std::vector<Case> cases = {
      {{Rect{-3, 5, 2, 3}, Rect{-3, 8, 2, 4}, Rect{-1, 5, 4, 3}, Rect{-1, 8, 4, 4}},
       {2, 0, 3, 1}},
      {{Rect{-3, 5, 4, 7}, Rect{1, 5, 2, 7}}, {1, 0}},
  };
  for (const auto& [owned, order] : cases) {
    // A garbage file longer than the volume, as an older run may leave.
    {
      std::ofstream stale(path("vol.bin"), std::ios::binary);
      stale << std::string(expected.size() + 1000, '\x5a');
    }
    for (const usize r : order) {
      const Rect frame = clip(dilate(owned[r], 1), field);
      FramedVolume tile(2, frame);
      copy_region(full, tile, frame);
      io::write_volume_region(path("vol.bin"), field, tile, owned[r], /*size_file=*/r == 0);
    }
    std::ifstream in(path("vol.bin"), std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(written, expected) << owned.size() << " regions";
    EXPECT_TRUE(bytes_equal(io::load_volume(path("vol.bin")), full)) << owned.size();
  }
}

TEST_F(IoScratch, VolumeWindowLoadRejectsWindowsOutsideTheFrame) {
  io::save_volume(path("vol.bin"), patterned_volume(Rect{-3, 5, 6, 7}));
  // Wholly outside, overhanging each edge, and empty.
  for (const Rect& window : {Rect{10, 20, 2, 2}, Rect{-4, 6, 2, 2}, Rect{2, 6, 2, 2},
                             Rect{0, 4, 2, 2}, Rect{0, 11, 2, 2}, Rect{0, 6, 0, 3}}) {
    EXPECT_THROW((void)io::load_volume(path("vol.bin"), window), Error) << window;
  }
}

TEST_F(IoScratch, VolumeWindowLoadStillRejectsATruncatedPayload) {
  // The window lies in the bytes the file holds; the file is still short.
  const std::size_t bytes = 2 * 4 * 6 * sizeof(cplx);
  EXPECT_THROW((void)io::load_volume(forged_volume(path("cut.bin"), {0, 0, 4, 6, 2}, bytes - 1),
                                     Rect{0, 0, 1, 1}),
               Error);
}

// A 2x3-probe, 8x8-window dataset with patterned measurements, built
// without a simulation so the header tests stay instant.
Dataset small_dataset() {
  DatasetSpec spec;
  spec.name = "hdr";
  spec.scan.rows = 2;
  spec.scan.cols = 3;
  spec.scan.step_px = 4;
  spec.scan.probe_n = 8;
  spec.grid.probe_n = 8;
  spec.slices = 2;
  spec.model.model = ObjectModel::kPotential;
  Dataset dataset(spec, ScanPattern(spec.scan), Probe(spec.grid, spec.probe));
  for (index_t i = 0; i < dataset.probe_count(); ++i) {
    RArray2D m(8, 8);
    for (index_t y = 0; y < 8; ++y) {
      for (index_t x = 0; x < 8; ++x) m(y, x) = static_cast<real>(i * 64 + y * 8 + x);
    }
    dataset.measurements.push_back(std::move(m));
  }
  return dataset;
}

// The 8-byte header fields after the name, in file order.
enum HeaderField : std::uint64_t {
  kRows = 0, kCols = 1, kStepX = 2, kStepY = 3, kMargin = 4, kScanProbeN = 5, kGridProbeN = 6,
  kDx = 7, kDz = 8, kWavelength = 9, kAperture = 10, kDefocus = 11, kCs = 12, kSlices = 13,
  kModel = 14, kSigma = 15,
};

// The bit pattern of a double header field.
std::uint64_t f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}
const double kNaN = std::nan("");
const double kInf = HUGE_VAL;

class DatasetHeader : public IoScratch {
 protected:
  void SetUp() override {
    IoScratch::SetUp();
    const Dataset dataset = small_dataset();
    io::save_dataset(path("ok.ptyd"), dataset);
    std::ifstream in(path("ok.ptyd"), std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    fields_ = 16 + dataset.spec.name.size();  // after the magic, name length and name
  }

  // A copy of the valid file with `values` written over the given fields
  // (or truncated by `drop` bytes); returns its path.
  std::string patched(const std::vector<std::pair<HeaderField, std::uint64_t>>& values,
                      usize drop = 0) {
    std::vector<char> copy(bytes_.begin(), bytes_.end() - static_cast<std::ptrdiff_t>(drop));
    for (const auto& [field, value] : values) {
      std::memcpy(copy.data() + fields_ + 8 * field, &value, sizeof value);
    }
    const std::string out = path("patched.ptyd");
    std::ofstream(out, std::ios::binary)
        .write(copy.data(), static_cast<std::streamsize>(copy.size()));
    return out;
  }

  // Pixel size, slice thickness and wavelength must be finite and positive.
  void expect_positive_finite(HeaderField field) {
    for (const double bad : {0.0, -1.0, kNaN, kInf}) {
      EXPECT_THROW((void)io::load_dataset(patched({{field, f64(bad)}})), Error) << bad;
    }
  }

  // The other float fields need only be finite; `valid` is a control.
  void expect_finite(HeaderField field, double valid) {
    EXPECT_NO_THROW((void)io::load_dataset(patched({{field, f64(valid)}})));
    for (const double bad : {kNaN, kInf, -kInf}) {
      EXPECT_THROW((void)io::load_dataset(patched({{field, f64(bad)}})), Error) << bad;
    }
  }

  std::vector<char> bytes_;
  usize fields_ = 0;
};

TEST_F(DatasetHeader, UnpatchedFileLoadsUnchanged) {
  const Dataset original = small_dataset();
  const Dataset loaded = io::load_dataset(patched({}));
  EXPECT_EQ(loaded.spec.slices, 2);
  EXPECT_EQ(loaded.spec.model.model, ObjectModel::kPotential);
  ASSERT_EQ(loaded.measurements.size(), original.measurements.size());
  for (usize i = 0; i < loaded.measurements.size(); ++i) {
    EXPECT_EQ(std::memcmp(loaded.measurements[i].data(), original.measurements[i].data(),
                          original.measurements[i].bytes()),
              0);
  }
}

TEST_F(DatasetHeader, RejectsUnknownObjectModel) {
  EXPECT_THROW((void)io::load_dataset(patched({{kModel, 2}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kModel, UINT64_MAX}})), Error);
}

TEST_F(DatasetHeader, RejectsNoSlices) {
  EXPECT_THROW((void)io::load_dataset(patched({{kSlices, 0}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kSlices, UINT64_MAX}})), Error);
}

TEST_F(DatasetHeader, RejectsTooManySlices) {
  EXPECT_NO_THROW((void)io::load_dataset(patched({{kSlices, 1024}})));
  EXPECT_THROW((void)io::load_dataset(patched({{kSlices, 1025}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kSlices, std::uint64_t{1} << 40}})), Error);
}

// The fixture's window is 8 px: a raster step or margin beyond it would
// imply an object field the measurements do not bound.
TEST_F(DatasetHeader, RejectsARasterStepOutsideTheWindow) {
  EXPECT_NO_THROW((void)io::load_dataset(patched({{kStepX, 8}})));
  EXPECT_THROW((void)io::load_dataset(patched({{kStepX, 0}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kStepX, 9}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kStepX, UINT64_MAX}})), Error);
}

TEST_F(DatasetHeader, RejectsAVerticalStepBeyondTheWindow) {
  EXPECT_NO_THROW((void)io::load_dataset(patched({{kStepY, 8}})));
  EXPECT_THROW((void)io::load_dataset(patched({{kStepY, 9}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kStepY, std::uint64_t{1} << 62}})), Error);
}

TEST_F(DatasetHeader, RejectsAMarginBeyondTheWindow) {
  EXPECT_NO_THROW((void)io::load_dataset(patched({{kMargin, 8}})));
  EXPECT_THROW((void)io::load_dataset(patched({{kMargin, 9}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kMargin, UINT64_MAX}})), Error);
}

TEST_F(DatasetHeader, RejectsABadPixelSize) { expect_positive_finite(kDx); }
TEST_F(DatasetHeader, RejectsABadSliceThickness) { expect_positive_finite(kDz); }
TEST_F(DatasetHeader, RejectsABadWavelength) { expect_positive_finite(kWavelength); }

TEST_F(DatasetHeader, RejectsANonFiniteAperture) { expect_finite(kAperture, 25.0); }
TEST_F(DatasetHeader, RejectsANonFiniteDefocus) { expect_finite(kDefocus, -2.0); }
TEST_F(DatasetHeader, RejectsANonFiniteSphericalAberration) { expect_finite(kCs, -2.0); }

TEST_F(DatasetHeader, RejectsANonFiniteNoiseSigma) {
  expect_finite(kSigma, 0.5);
  // Finite as a double, infinite once narrowed to the stored precision.
  EXPECT_THROW((void)io::load_dataset(patched({{kSigma, f64(1e300)}})), Error);
}

TEST_F(DatasetHeader, RejectsProbeWindowMismatch) {
  EXPECT_THROW((void)io::load_dataset(patched({{kGridProbeN, 16}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kScanProbeN, 4}})), Error);
}

TEST_F(DatasetHeader, RejectsMeasurementsLargerThanTheFile) {
  // A scan or window the file cannot hold must fail before the loader
  // reserves rows*cols locations or allocates a probe_n^2 probe.
  EXPECT_THROW((void)io::load_dataset(patched({{kRows, 3}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kRows, std::uint64_t{1} << 40}})), Error);
  EXPECT_THROW((void)io::load_dataset(patched({{kCols, UINT64_MAX}})), Error);
  const std::uint64_t huge_n = std::uint64_t{1} << 32;
  EXPECT_THROW((void)io::load_dataset(patched({{kScanProbeN, huge_n}, {kGridProbeN, huge_n}})),
               Error);
  EXPECT_THROW((void)io::load_dataset(patched({}, /*drop=*/1)), Error);
}

// ---- partial loads ----------------------------------------------------------

bool frames_equal(const RArray2D& a, const RArray2D& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

TEST_F(DatasetHeader, PartialLoadReadsOnlyTheListedFrames) {
  const Dataset full = io::load_dataset(patched({}));
  // Unsorted, with a repeat: the loader reads each listed frame once.
  const Dataset partial = io::load_dataset(patched({}), {4, 1, 4});
  EXPECT_EQ(partial.spec.name, full.spec.name);
  EXPECT_EQ(partial.field(), full.field());
  ASSERT_EQ(partial.measurements.size(), full.measurements.size());
  for (index_t id = 0; id < full.probe_count(); ++id) {
    const RArray2D& frame = partial.measurements[static_cast<usize>(id)];
    if (id == 1 || id == 4) {
      EXPECT_TRUE(frames_equal(frame, full.measurements[static_cast<usize>(id)])) << id;
    } else {
      EXPECT_TRUE(frame.empty()) << id;
    }
  }
}

TEST_F(DatasetHeader, EmptyFrameListLoadsTheHeaderAlone) {
  const Dataset header = io::load_dataset(patched({}), {});
  EXPECT_EQ(header.probe_count(), 6);
  ASSERT_EQ(header.measurements.size(), 6u);
  for (const RArray2D& frame : header.measurements) EXPECT_TRUE(frame.empty());
}

TEST_F(DatasetHeader, PartialLoadRejectsAnIdOutsideTheScan) {
  EXPECT_THROW((void)io::load_dataset(patched({}), {0, 6}), Error);
  EXPECT_THROW((void)io::load_dataset(patched({}), {-1}), Error);
}

TEST_F(DatasetHeader, PartialLoadStillRejectsATruncatedFile) {
  // Frame 0 is intact; the last frame is one byte short.
  EXPECT_THROW((void)io::load_dataset(patched({}, /*drop=*/1), {0}), Error);
  EXPECT_THROW((void)io::load_dataset(patched({}, /*drop=*/1), {}), Error);
}

TEST_F(DatasetHeader, ReadingAnUnloadedFrameNamesItsProbe) {
  const Dataset partial = io::load_dataset(patched({}), {0, 2});
  EXPECT_EQ(&partial.frame(2), &partial.measurements[2]);
  EXPECT_EQ(partial.frame_bytes({2, 0}), 2 * partial.frame(0).bytes());
  for (const auto& read : std::vector<std::function<void()>>{
           [&] { (void)partial.frame(3); }, [&] { (void)partial.frame_bytes({0, 3}); }}) {
    try {
      read();
      FAIL() << "read a frame that was never loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("probe 3 was not loaded"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ptycho
