// Tests for src/data: synthetic specimen, acquisition simulation, dataset
// descriptors and I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/random.hpp"
#include "data/io.hpp"
#include "data/simulate.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Specimen, TransmittanceBounded) {
  OpticsGrid grid;
  grid.probe_n = 16;
  const Rect field{0, 0, 64, 64};
  FramedVolume specimen = make_perovskite_specimen(field, 3, grid);
  for (index_t s = 0; s < 3; ++s) {
    for (index_t y = 0; y < field.h; ++y) {
      for (index_t x = 0; x < field.w; ++x) {
        EXPECT_LE(std::abs(specimen.data(s, y, x)), 1.0f + 1e-5f);
      }
    }
  }
}

TEST(Specimen, HasAtomicContrast) {
  OpticsGrid grid;
  const Rect field{0, 0, 96, 96};
  FramedVolume specimen = make_perovskite_specimen(field, 1, grid);
  // Phase varies (atoms present): max phase well above min phase.
  double max_phase = -10.0;
  double min_phase = 10.0;
  for (index_t y = 0; y < field.h; ++y) {
    for (index_t x = 0; x < field.w; ++x) {
      const double phase = std::arg(std::complex<double>(specimen.data(0, y, x)));
      max_phase = std::max(max_phase, phase);
      min_phase = std::min(min_phase, phase);
    }
  }
  EXPECT_GT(max_phase - min_phase, 0.2);
}

TEST(Specimen, DeterministicFromSeed) {
  OpticsGrid grid;
  const Rect field{0, 0, 32, 32};
  SpecimenParams params;
  params.seed = 99;
  FramedVolume a = make_perovskite_specimen(field, 2, grid, params);
  FramedVolume b = make_perovskite_specimen(field, 2, grid, params);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < field.h; ++y) {
      for (index_t x = 0; x < field.w; ++x) EXPECT_EQ(a.data(s, y, x), b.data(s, y, x));
    }
  }
}

TEST(Specimen, SlicesDiffer) {
  OpticsGrid grid;
  const Rect field{0, 0, 64, 64};
  FramedVolume specimen = make_perovskite_specimen(field, 2, grid);
  double diff = 0.0;
  for (index_t y = 0; y < field.h; ++y) {
    for (index_t x = 0; x < field.w; ++x) {
      diff += std::norm(std::complex<double>(specimen.data(0, y, x)) -
                        std::complex<double>(specimen.data(1, y, x)));
    }
  }
  EXPECT_GT(diff, 0.0);  // per-slice jitter must decorrelate slices
}

TEST(Vacuum, AllOnes) {
  FramedVolume v = make_vacuum_volume(Rect{0, 0, 4, 4}, 2);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 4; ++y) {
      for (index_t x = 0; x < 4; ++x) EXPECT_EQ(v.data(s, y, x), cplx(1, 0));
    }
  }
}

TEST(Dataset, SyntheticConsistent) {
  const Dataset& dataset = testing::tiny_dataset();
  EXPECT_EQ(dataset.probe_count(), 36);
  EXPECT_EQ(dataset.measurements.size(), 36u);
  for (const auto& m : dataset.measurements) {
    EXPECT_EQ(m.rows(), 32);
    EXPECT_EQ(m.cols(), 32);
  }
  EXPECT_TRUE(dataset.ground_truth.frame.contains(dataset.field()));
  EXPECT_GT(dataset.measurement_bytes(), 0u);
  EXPECT_GT(dataset.volume_bytes(), 0u);
}

TEST(Dataset, MeasurementsAreNonNegativeAndFinite) {
  const Dataset& dataset = testing::tiny_dataset();
  for (const auto& m : dataset.measurements) {
    for (index_t y = 0; y < m.rows(); ++y) {
      for (index_t x = 0; x < m.cols(); ++x) {
        EXPECT_GE(m(y, x), 0.0f);
        EXPECT_TRUE(std::isfinite(m(y, x)));
      }
    }
  }
}

TEST(Dataset, NoiseChangesMeasurements) {
  const Dataset& clean = testing::tiny_dataset();
  const Dataset& noisy = testing::tiny_noisy_dataset();
  double diff = 0.0;
  double total = 0.0;
  for (usize i = 0; i < clean.measurements.size(); ++i) {
    const auto& a = clean.measurements[i];
    const auto& b = noisy.measurements[i];
    for (index_t y = 0; y < a.rows(); ++y) {
      for (index_t x = 0; x < a.cols(); ++x) {
        diff += std::abs(static_cast<double>(a(y, x)) - static_cast<double>(b(y, x)));
        total += static_cast<double>(a(y, x));
      }
    }
  }
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, total);  // noise is a perturbation, not a different signal
}

TEST(PaperDatasets, TableOneNumbers) {
  const PaperDataset small = paper_small_dataset();
  EXPECT_EQ(small.probes, 4158);
  EXPECT_EQ(small.meas_n, 1024);
  EXPECT_EQ(small.vol_y, 1536);
  EXPECT_EQ(small.slices, 100);
  EXPECT_EQ(small.scan_rows * small.scan_cols, small.probes);
  // 1024*1024*4158 float magnitudes ≈ 16.3 GiB.
  EXPECT_NEAR(static_cast<double>(small.measurement_bytes()) / kGiB, 16.24, 0.1);

  const PaperDataset large = paper_large_dataset();
  EXPECT_EQ(large.probes, 16632);
  EXPECT_EQ(large.vol_y, 3072);
  EXPECT_EQ(large.scan_rows * large.scan_cols, large.probes);
  // Volume: 3072^2*100 voxels complex64 ≈ 7.03 GiB.
  EXPECT_NEAR(static_cast<double>(large.volume_bytes()) / kGiB, 7.03, 0.05);
}

TEST(ReproSpecs, Sane) {
  for (const DatasetSpec& spec :
       {repro_tiny_spec(), repro_small_spec(), repro_large_spec()}) {
    EXPECT_EQ(spec.scan.probe_n, static_cast<index_t>(spec.grid.probe_n));
    ScanPattern scan(spec.scan);
    EXPECT_GT(scan.overlap_ratio(), 0.7) << spec.name;  // paper's regime
    EXPECT_GE(spec.slices, 3) << spec.name;
  }
}

TEST(Io, PgmWritesValidHeader) {
  RArray2D image(8, 12);
  image(3, 4) = 7.0f;
  const std::string path = temp_path("test_image.pgm");
  io::write_pgm(path, image.view());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P5");
  int w = 0;
  int h = 0;
  int maxv = 0;
  ASSERT_EQ(std::fscanf(f, "%d %d %d", &w, &h, &maxv), 3);
  EXPECT_EQ(w, 12);
  EXPECT_EQ(h, 8);
  EXPECT_EQ(maxv, 255);
  std::fclose(f);
}

TEST(Io, PhasePgmHandlesComplexInput) {
  CArray2D slice(4, 4);
  slice.fill(cplx(0, 1));
  const std::string path = temp_path("test_phase.pgm");
  EXPECT_NO_THROW(io::write_phase_pgm(path, slice.view()));
}

TEST(Io, VolumeRoundtrip) {
  FramedVolume v(2, Rect{5, 6, 7, 8});
  Rng rng(77);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 7; ++y) {
      for (index_t x = 0; x < 8; ++x) {
        v.data(s, y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      }
    }
  }
  const std::string path = temp_path("volume.bin");
  io::save_volume(path, v);
  FramedVolume loaded = io::load_volume(path);
  EXPECT_EQ(loaded.frame, v.frame);
  ASSERT_EQ(loaded.slices(), 2);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 7; ++y) {
      for (index_t x = 0; x < 8; ++x) EXPECT_EQ(loaded.data(s, y, x), v.data(s, y, x));
    }
  }
}

TEST(Io, LoadRejectsGarbage) {
  const std::string path = temp_path("garbage.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a volume", f);
  std::fclose(f);
  EXPECT_THROW((void)io::load_volume(path), Error);
  EXPECT_THROW((void)io::load_volume(temp_path("does_not_exist.bin")), Error);
}

TEST(Io, DatasetRoundtrip) {
  const Dataset& original = testing::tiny_dataset();
  const std::string path = temp_path("dataset.ptyd");
  io::save_dataset(path, original);
  const Dataset loaded = io::load_dataset(path);
  EXPECT_EQ(loaded.spec.name, original.spec.name);
  EXPECT_EQ(loaded.probe_count(), original.probe_count());
  EXPECT_EQ(loaded.field(), original.field());
  EXPECT_EQ(loaded.spec.slices, original.spec.slices);
  ASSERT_EQ(loaded.measurements.size(), original.measurements.size());
  for (usize i = 0; i < loaded.measurements.size(); ++i) {
    for (index_t y = 0; y < loaded.measurements[i].rows(); ++y) {
      for (index_t x = 0; x < loaded.measurements[i].cols(); ++x) {
        ASSERT_EQ(loaded.measurements[i](y, x), original.measurements[i](y, x))
            << i << "," << y << "," << x;
      }
    }
  }
  // The probe is rebuilt from the spec and must match the original.
  EXPECT_LT(diff_norm_sq(loaded.probe.field().view(), original.probe.field().view()), 1e-9);
}

TEST(Io, DatasetLoadRejectsGarbage) {
  const std::string path = temp_path("bad.ptyd");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("nonsense", f);
  std::fclose(f);
  EXPECT_THROW((void)io::load_dataset(path), Error);
}

TEST(Io, CsvWriterProducesRows) {
  const std::string path = temp_path("out.csv");
  {
    io::CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.row({1.0, 2.5});
  }
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_STREQ(line, "a,b\n");
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_STREQ(line, "1,2.5\n");
  std::fclose(f);
}

}  // namespace
}  // namespace ptycho
