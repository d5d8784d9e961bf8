#include "data/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace ptycho::io {

void write_pgm(const std::string& path, View2D<const real> image) {
  double lo = 1e300;
  double hi = -1e300;
  for (index_t y = 0; y < image.rows(); ++y) {
    for (index_t x = 0; x < image.cols(); ++x) {
      const auto v = static_cast<double>(image(y, x));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  // A constant image has no contrast to map: emit mid-gray (as documented)
  // rather than the black frame a naive (v - lo) / 1.0 would produce.
  const bool flat = !(hi > lo);
  const double span = flat ? 1.0 : hi - lo;

  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << "P5\n" << image.cols() << " " << image.rows() << "\n255\n";
  for (index_t y = 0; y < image.rows(); ++y) {
    for (index_t x = 0; x < image.cols(); ++x) {
      const double v = (static_cast<double>(image(y, x)) - lo) / span;
      const auto byte = flat ? static_cast<unsigned char>(128)
                             : static_cast<unsigned char>(std::clamp(v * 255.0, 0.0, 255.0));
      out.put(static_cast<char>(byte));
    }
  }
  PTYCHO_CHECK(out.good(), "write failed for '" << path << "'");
}

void write_phase_pgm(const std::string& path, View2D<const cplx> slice) {
  RArray2D phase(slice.rows(), slice.cols());
  for (index_t y = 0; y < slice.rows(); ++y) {
    for (index_t x = 0; x < slice.cols(); ++x) {
      phase(y, x) = std::arg(slice(y, x));
    }
  }
  write_pgm(path, phase.view());
}

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path);
  PTYCHO_CHECK(impl_->out.good(), "cannot open '" << path << "' for writing");
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::header(const std::vector<std::string>& names) {
  for (usize i = 0; i < names.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << names[i];
  }
  impl_->out << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  std::ostringstream line;
  for (usize i = 0; i < values.size(); ++i) {
    if (i > 0) line << ',';
    line << values[i];
  }
  impl_->out << line.str() << '\n';
}

namespace {
constexpr std::uint64_t kVolumeMagic = 0x50545943484F564CULL;  // "PTYCHOVL"

// a * b, saturating at the largest u64 instead of wrapping.
std::uint64_t mul_saturating(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > UINT64_MAX / b ? UINT64_MAX : a * b;
}
// Opens `path` for the loaders' positioned reads, unbuffered: a seek then
// costs no buffer refill, so a partial load reads only the bytes it keeps.
void open_for_reading(std::ifstream& in, const std::string& path) {
  in.rdbuf()->pubsetbuf(nullptr, 0);
  in.open(path, std::ios::binary);
  PTYCHO_CHECK(in.is_open(), "cannot open '" << path << "' for reading");
}
// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::ifstream& in) {
  const auto here = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}
}  // namespace

void save_volume(const std::string& path, const FramedVolume& volume) {
  write_volume_region(path, volume.frame, volume, volume.frame, /*size_file=*/true);
}

void write_volume_region(const std::string& path, const Rect& field,
                         const FramedVolume& volume, const Rect& region, bool size_file) {
  PTYCHO_REQUIRE(field.contains(region) && volume.frame.contains(region),
                 "region " << region << " must lie inside the field " << field
                           << " and the volume's frame " << volume.frame);
  struct File {
    int fd;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } file{::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644)};
  PTYCHO_CHECK(file.fd >= 0, "cannot open '" << path << "' for writing");
  const auto write_at = [&](const void* bytes, std::size_t count, off_t offset) {
    const char* p = static_cast<const char*>(bytes);
    while (count > 0) {
      const ssize_t n = ::pwrite(file.fd, p, count, offset);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) PTYCHO_FAIL("write failed for '" << path << "'");
      p += n;
      count -= static_cast<std::size_t>(n);
      offset += n;
    }
  };
  const index_t slices = volume.slices();
  const std::uint64_t magic = kVolumeMagic;
  const std::int64_t header[5] = {field.y0, field.x0, field.h, field.w, slices};
  constexpr off_t kFirstVoxel = sizeof(magic) + sizeof(header);
  write_at(&magic, sizeof(magic), 0);
  write_at(header, sizeof(header), sizeof(magic));
  // Rows spanning both the field and the volume's frame are contiguous on
  // both sides: one write per slice, else one per row.
  const bool whole_rows = region.x0 == field.x0 && region.w == field.w &&
                          region.x0 == volume.frame.x0 && region.w == volume.frame.w;
  const index_t band_rows = whole_rows ? region.h : 1;
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = region.y0; y < region.y1(); y += band_rows) {
      const index_t voxel = (s * field.h + y - field.y0) * field.w + region.x0 - field.x0;
      write_at(&volume.at_global(s, y, region.x0),
               static_cast<std::size_t>(band_rows * region.w) * sizeof(cplx),
               kFirstVoxel + static_cast<off_t>(voxel) * static_cast<off_t>(sizeof(cplx)));
    }
  }
  if (size_file) {
    const off_t length = kFirstVoxel + static_cast<off_t>(slices * field.h * field.w) *
                                           static_cast<off_t>(sizeof(cplx));
    PTYCHO_CHECK(::ftruncate(file.fd, length) == 0, "cannot size '" << path << "'");
  }
  PTYCHO_CHECK(::close(std::exchange(file.fd, -1)) == 0, "write failed for '" << path << "'");
}

namespace {
struct VolumeHeader {
  Rect frame;
  index_t slices = 0;
};

// Reads and validates a volume file's header, leaving `in` at the first
// voxel. The header is untrusted: it is rejected before it sizes any
// allocation. The voxels must fit in the bytes the file actually holds,
// and the frame's far corner must be representable.
VolumeHeader read_volume_header(std::ifstream& in, const std::string& path) {
  std::uint64_t magic = 0;
  std::int64_t header[5] = {};
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  PTYCHO_CHECK(in.good() && magic == kVolumeMagic, "'" << path << "' is not a volume file");
  const auto [y0, x0, h, w, slices] = header;
  PTYCHO_CHECK(h > 0 && w > 0 && slices > 0,
               "volume file '" << path << "' declares an empty or negative extent (" << slices
                               << " slices of " << h << "x" << w << ")");
  PTYCHO_CHECK(y0 <= INT64_MAX - h && x0 <= INT64_MAX - w,
               "volume file '" << path << "' has an out-of-range frame origin");
  std::uint64_t payload = sizeof(cplx);
  for (const std::int64_t factor : {slices, h, w}) {
    payload = mul_saturating(payload, static_cast<std::uint64_t>(factor));
  }
  PTYCHO_CHECK(payload <= bytes_left(in), "volume file '" << path << "' is shorter than the "
                                              << slices << "x" << h << "x" << w
                                              << " volume it declares");
  return VolumeHeader{Rect{y0, x0, h, w}, slices};
}

// Reads `window` (inside header.frame) of every slice from the voxels that
// start at `in`'s position: one read per slice when the window spans whole
// rows, else one per row.
FramedVolume read_volume_window(std::ifstream& in, const std::string& path,
                                const VolumeHeader& header, const Rect& window) {
  const Rect& frame = header.frame;
  const bool whole_rows = window.x0 == frame.x0 && window.w == frame.w;
  const index_t band_rows = whole_rows ? window.h : 1;
  const std::streamoff first = in.tellg();
  FramedVolume volume(header.slices, window);
  for (index_t s = 0; s < header.slices; ++s) {
    for (index_t y = 0; y < window.h; y += band_rows) {
      const index_t voxel =
          (s * frame.h + window.y0 - frame.y0 + y) * frame.w + window.x0 - frame.x0;
      in.seekg(first + static_cast<std::streamoff>(voxel * static_cast<index_t>(sizeof(cplx))));
      in.read(reinterpret_cast<char*>(&volume.data(s, y, 0)),
              static_cast<std::streamsize>(band_rows * window.w *
                                           static_cast<index_t>(sizeof(cplx))));
    }
  }
  PTYCHO_CHECK(in.good(), "truncated volume file '" << path << "'");
  return volume;
}
}  // namespace

FramedVolume load_volume(const std::string& path) {
  std::ifstream in;
  open_for_reading(in, path);
  const VolumeHeader header = read_volume_header(in, path);
  return read_volume_window(in, path, header, header.frame);
}

FramedVolume load_volume(const std::string& path, const Rect& window) {
  std::ifstream in;
  open_for_reading(in, path);
  const VolumeHeader header = read_volume_header(in, path);
  PTYCHO_CHECK(!window.empty() && header.frame.contains(window),
               "window " << window << " is not inside the frame " << header.frame
                         << " of volume file '" << path << "'");
  return read_volume_window(in, path, header, window);
}

namespace {
constexpr std::uint64_t kDatasetMagic = 0x5054594348444154ULL;  // "PTYCHDAT"

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_f64(std::ofstream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
double read_f64(std::ifstream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
}  // namespace

void save_dataset(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_u64(out, kDatasetMagic);
  const DatasetSpec& spec = dataset.spec;
  write_u64(out, spec.name.size());
  out.write(spec.name.data(), static_cast<std::streamsize>(spec.name.size()));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.rows));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.cols));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.step_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.step_y_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.margin_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.probe_n));
  write_u64(out, spec.grid.probe_n);
  write_f64(out, spec.grid.dx_pm);
  write_f64(out, spec.grid.dz_pm);
  write_f64(out, spec.grid.wavelength_pm);
  write_f64(out, spec.probe.aperture_mrad);
  write_f64(out, spec.probe.defocus_pm);
  write_f64(out, spec.probe.cs_pm);
  write_u64(out, static_cast<std::uint64_t>(spec.slices));
  write_u64(out, static_cast<std::uint64_t>(spec.model.model));
  write_f64(out, static_cast<double>(spec.model.sigma));
  write_u64(out, dataset.measurements.size());
  for (const RArray2D& m : dataset.measurements) {
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.bytes()));
  }
  PTYCHO_CHECK(out.good(), "write failed for '" << path << "'");
}

namespace {
// Largest slice count a dataset header may declare (the paper's volumes
// have 100 slices).
constexpr std::uint64_t kMaxSlices = 1024;

// Loads the header and the frames of `frames` (sorted, unique; null = all).
Dataset read_dataset(const std::string& path, const std::vector<index_t>* frames) {
  std::ifstream in;
  open_for_reading(in, path);
  PTYCHO_CHECK(read_u64(in) == kDatasetMagic, "'" << path << "' is not a dataset file");
  DatasetSpec spec;
  const auto name_len = read_u64(in);
  PTYCHO_CHECK(name_len < (1u << 20), "corrupt dataset name length");
  spec.name.resize(name_len);
  in.read(spec.name.data(), static_cast<std::streamsize>(name_len));
  const auto rows = read_u64(in);
  const auto cols = read_u64(in);
  const auto step_x = read_u64(in);
  const auto step_y = read_u64(in);
  const auto margin = read_u64(in);
  spec.scan.rows = static_cast<index_t>(rows);
  spec.scan.cols = static_cast<index_t>(cols);
  spec.scan.step_px = static_cast<index_t>(step_x);
  spec.scan.step_y_px = static_cast<index_t>(step_y);
  spec.scan.margin_px = static_cast<index_t>(margin);
  spec.scan.probe_n = static_cast<index_t>(read_u64(in));
  spec.grid.probe_n = read_u64(in);
  spec.grid.dx_pm = read_f64(in);
  spec.grid.dz_pm = read_f64(in);
  spec.grid.wavelength_pm = read_f64(in);
  spec.probe.aperture_mrad = read_f64(in);
  spec.probe.defocus_pm = read_f64(in);
  spec.probe.cs_pm = read_f64(in);
  const auto slices = read_u64(in);
  spec.slices = static_cast<index_t>(slices);
  const auto model = read_u64(in);
  spec.model.sigma = static_cast<real>(read_f64(in));
  const auto count = read_u64(in);
  PTYCHO_CHECK(in.good(), "truncated dataset header in '" << path << "'");

  // The header is untrusted: reject it before it sizes any allocation.
  // The measurements must fit in the bytes the file actually holds.
  PTYCHO_CHECK(model <= static_cast<std::uint64_t>(ObjectModel::kPotential),
               "dataset '" << path << "' has unknown object model " << model);
  spec.model.model = static_cast<ObjectModel>(model);
  PTYCHO_CHECK(slices >= 1 && slices <= kMaxSlices,
               "dataset '" << path << "' declares " << static_cast<std::int64_t>(slices)
                           << " slices (want 1.." << kMaxSlices << ")");
  PTYCHO_CHECK(spec.grid.probe_n == static_cast<std::uint64_t>(spec.scan.probe_n),
               "dataset '" << path << "' probe window " << spec.grid.probe_n
                           << " does not match its scan window " << spec.scan.probe_n);
  std::uint64_t block = sizeof(real);
  for (const std::uint64_t factor : {rows, cols, spec.grid.probe_n, spec.grid.probe_n}) {
    block = mul_saturating(block, factor);
  }
  PTYCHO_CHECK(block <= bytes_left(in), "dataset '" << path << "' is shorter than the "
                                            << rows << "x" << cols << " scan it declares");
  // A raster step beyond the probe window leaves unmeasured gaps, and a
  // margin beyond one window holds only voxels no probe touches. Within
  // these bounds the object field spans at most (rows + 2) x (cols + 2)
  // windows, so the measurements the file holds bound the volume's size.
  const std::uint64_t n = spec.grid.probe_n;
  PTYCHO_CHECK(step_x >= 1 && step_x <= n, "dataset '" << path << "' raster step " << step_x
                                                       << " px is outside 1.." << n);
  PTYCHO_CHECK(step_y <= n, "dataset '" << path << "' vertical raster step " << step_y
                                        << " px exceeds the " << n << " px window");
  PTYCHO_CHECK(margin <= n, "dataset '" << path << "' margin " << margin
                                        << " px exceeds the " << n << " px window");
  for (const auto& [name, value] : {std::pair{"pixel size dx_pm", spec.grid.dx_pm},
                                    std::pair{"slice thickness dz_pm", spec.grid.dz_pm},
                                    std::pair{"wavelength_pm", spec.grid.wavelength_pm}}) {
    PTYCHO_CHECK(std::isfinite(value) && value > 0,
                 "dataset '" << path << "' has a non-positive or non-finite " << name << " ("
                             << value << ")");
  }
  for (const auto& [name, value] :
       {std::pair{"aperture_mrad", spec.probe.aperture_mrad},
        std::pair{"defocus_pm", spec.probe.defocus_pm}, std::pair{"cs_pm", spec.probe.cs_pm},
        std::pair{"noise sigma", static_cast<double>(spec.model.sigma)}}) {
    PTYCHO_CHECK(std::isfinite(value),
                 "dataset '" << path << "' has a non-finite " << name << " (" << value << ")");
  }

  Dataset dataset(spec, ScanPattern(spec.scan), Probe(spec.grid, spec.probe));
  PTYCHO_CHECK(count == static_cast<std::uint64_t>(dataset.scan.count()),
               "dataset '" << path << "' measurement count does not match its scan");
  const auto total = static_cast<index_t>(count);
  if (frames != nullptr && !frames->empty()) {
    PTYCHO_CHECK(frames->front() >= 0 && frames->back() < total,
                 "dataset '" << path << "' has no frame for probe "
                             << (frames->front() < 0 ? frames->front() : frames->back())
                             << " (probes 0.." << total - 1 << ")");
  }
  dataset.measurements.resize(static_cast<usize>(count));
  const auto frame_n = static_cast<index_t>(n);
  const std::streamoff first = in.tellg();
  const auto frame_bytes = static_cast<std::streamoff>(frame_n * frame_n * sizeof(real));
  index_t next = 0;  // the frame the stream is positioned at
  const auto read_frame = [&](index_t id) {
    if (id != next) in.seekg(first + id * frame_bytes);
    RArray2D m(frame_n, frame_n);
    in.read(reinterpret_cast<char*>(m.data()), static_cast<std::streamsize>(m.bytes()));
    dataset.measurements[static_cast<usize>(id)] = std::move(m);
    next = id + 1;
  };
  if (frames == nullptr) {
    for (index_t id = 0; id < total; ++id) read_frame(id);
  } else {
    for (const index_t id : *frames) read_frame(id);
  }
  PTYCHO_CHECK(in.good(), "truncated measurements in '" << path << "'");
  return dataset;
}
}  // namespace

Dataset load_dataset(const std::string& path) { return read_dataset(path, nullptr); }

Dataset load_dataset(const std::string& path, const std::vector<index_t>& frames) {
  std::vector<index_t> sorted = frames;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return read_dataset(path, &sorted);
}

}  // namespace ptycho::io
