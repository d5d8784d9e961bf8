#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <tuple>

#include "ckpt/serialize.hpp"
#include "common/log.hpp"

namespace ptycho::ckpt {

namespace fs = std::filesystem;

namespace {
constexpr std::uint64_t kManifestMagic = 0x505459434D414E49ULL;  // "PTYCMANI"
constexpr std::uint64_t kShardMagic = 0x5054594353485244ULL;     // "PTYCSHRD"
constexpr const char* kManifestName = "manifest.ckpt";

std::string shard_name(int rank) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04d.ckpt", rank);
  return buf;
}

void write_framed(Writer& w, const FramedVolume& volume) {
  w.rect(volume.frame);
  w.i64(volume.slices());
  w.cplx_array(volume.data.data(), static_cast<usize>(volume.data.size()));
}

FramedVolume read_framed(Reader& r) {
  const Rect frame = r.rect();
  const index_t slices = r.i64();
  PTYCHO_CHECK(slices >= 0 && frame.h >= 0 && frame.w >= 0, "corrupt framed volume header");
  FramedVolume volume(slices, frame);
  r.cplx_array(volume.data.data(), static_cast<usize>(volume.data.size()));
  return volume;
}

void write_square(Writer& w, const CArray2D& a) {
  PTYCHO_CHECK(a.rows() == a.cols(), "checkpointed 2-D fields must be square");
  w.i64(a.rows());
  w.cplx_array(a.data(), static_cast<usize>(a.size()));
}

CArray2D read_square(Reader& r) {
  const index_t n = r.i64();
  PTYCHO_CHECK(n >= 0, "corrupt square array header");
  CArray2D a(n, n);
  r.cplx_array(a.data(), static_cast<usize>(a.size()));
  return a;
}

}  // namespace

std::uint64_t chunk_step(int iteration, int chunk, int chunks_per_iteration) {
  return static_cast<std::uint64_t>(iteration) * static_cast<std::uint64_t>(chunks_per_iteration) +
         static_cast<std::uint64_t>(chunk);
}

bool snapshot_due(const Policy& policy, std::uint64_t step) {
  return policy.enabled() && step > 0 &&
         step % static_cast<std::uint64_t>(policy.every_chunks) == 0;
}

Manifest make_manifest(const RunInfo& run, int iteration, int chunk,
                       std::vector<double> cost_values) {
  Manifest m;
  m.dataset_name = run.dataset_name;
  m.probe_count = run.probe_count;
  m.slices = run.slices;
  m.step = chunk_step(iteration, chunk, run.chunks_per_iteration);
  m.iteration = iteration;
  m.chunk = chunk;
  m.chunks_per_iteration = run.chunks_per_iteration;
  m.nranks = run.nranks;
  m.refine_probe = run.refine_probe;
  m.update_mode = run.update_mode;
  m.cost_values = std::move(cost_values);
  m.tiles = run.tiles;
  return m;
}

std::string step_dir(const std::string& root, std::uint64_t step) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "step-%08" PRIu64, step);
  return (fs::path(root) / buf).string();
}

void write_manifest(const std::string& dir, const Manifest& manifest) {
  Writer w((fs::path(dir) / kManifestName).string(), kManifestMagic, manifest.version);
  w.str(manifest.dataset_name);
  w.i64(manifest.probe_count);
  w.i64(manifest.slices);
  w.u64(manifest.step);
  w.u32(static_cast<std::uint32_t>(manifest.iteration));
  w.u32(static_cast<std::uint32_t>(manifest.chunk));
  w.u32(static_cast<std::uint32_t>(manifest.chunks_per_iteration));
  w.u32(static_cast<std::uint32_t>(manifest.nranks));
  w.u8(manifest.refine_probe ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(manifest.update_mode));
  w.u64(manifest.cost_values.size());
  for (double v : manifest.cost_values) w.f64(v);
  w.u64(manifest.tiles.size());
  for (const TileInfo& tile : manifest.tiles) {
    w.u32(static_cast<std::uint32_t>(tile.rank));
    w.rect(tile.owned);
    w.rect(tile.extended);
    w.u64(tile.own_probes.size());
    for (index_t id : tile.own_probes) w.i64(id);
  }
  w.finish();
}

Manifest read_manifest(const std::string& dir) {
  Reader r((fs::path(dir) / kManifestName).string(), kManifestMagic);
  PTYCHO_CHECK(r.version() == kFormatVersion, "unsupported snapshot format version "
                                                  << r.version() << " (this build reads "
                                                  << kFormatVersion << ")");
  Manifest m;
  m.version = r.version();
  m.dataset_name = r.str();
  m.probe_count = r.i64();
  m.slices = r.i64();
  m.step = r.u64();
  m.iteration = static_cast<int>(r.u32());
  m.chunk = static_cast<int>(r.u32());
  m.chunks_per_iteration = static_cast<int>(r.u32());
  m.nranks = static_cast<int>(r.u32());
  m.refine_probe = r.u8() != 0;
  m.update_mode = static_cast<int>(r.u8());
  const std::uint64_t cost_count = r.u64();
  PTYCHO_CHECK(cost_count < (1u << 24), "implausible cost history length");
  m.cost_values.reserve(cost_count);
  for (std::uint64_t i = 0; i < cost_count; ++i) m.cost_values.push_back(r.f64());
  const std::uint64_t tile_count = r.u64();
  PTYCHO_CHECK(tile_count == static_cast<std::uint64_t>(m.nranks),
               "manifest tile count does not match its rank count");
  m.tiles.reserve(tile_count);
  for (std::uint64_t t = 0; t < tile_count; ++t) {
    TileInfo tile;
    tile.rank = static_cast<int>(r.u32());
    tile.owned = r.rect();
    tile.extended = r.rect();
    const std::uint64_t nprobes = r.u64();
    PTYCHO_CHECK(nprobes <= static_cast<std::uint64_t>(m.probe_count),
                 "tile owns more probes than the dataset has");
    tile.own_probes.reserve(nprobes);
    for (std::uint64_t i = 0; i < nprobes; ++i) tile.own_probes.push_back(r.i64());
    m.tiles.push_back(std::move(tile));
  }
  return m;
}

std::uint64_t write_shard(const std::string& dir, const ShardView& shard) {
  const std::string path = (fs::path(dir) / shard_name(shard.rank)).string();
  {
    Writer w(path, kShardMagic, kFormatVersion);
    w.u32(static_cast<std::uint32_t>(shard.rank));
    w.f64(shard.partial_cost);
    for (std::uint64_t s : shard.rng.s) w.u64(s);
    w.u64(shard.rng.cached_normal_bits);
    w.u8(shard.rng.have_cached_normal ? 1 : 0);
    write_framed(w, *shard.volume);
    write_square(w, *shard.probe);
    write_square(w, *shard.probe_grad);
    w.finish();
  }
  return static_cast<std::uint64_t>(fs::file_size(path));
}

std::uint64_t write_shard(const std::string& dir, const Shard& shard) {
  return write_shard(dir, ShardView{shard.rank, shard.partial_cost, shard.rng, &shard.volume,
                                    nullptr, &shard.probe, &shard.probe_grad});
}

Shard read_shard(const std::string& dir, int rank) {
  Reader r((fs::path(dir) / shard_name(rank)).string(), kShardMagic);
  PTYCHO_CHECK(r.version() == kFormatVersion, "unsupported shard format version "
                                                  << r.version());
  Shard shard;
  shard.rank = static_cast<int>(r.u32());
  PTYCHO_CHECK(shard.rank == rank, "shard file contains the wrong rank");
  shard.partial_cost = r.f64();
  for (std::uint64_t& s : shard.rng.s) s = r.u64();
  shard.rng.cached_normal_bits = r.u64();
  shard.rng.have_cached_normal = r.u8() != 0;
  shard.volume = read_framed(r);
  shard.probe = read_square(r);
  shard.probe_grad = read_square(r);
  return shard;
}

std::optional<std::uint64_t> find_latest_step(const std::string& root) {
  std::error_code ec;
  std::optional<std::uint64_t> best;
  // Ranked by run progress, not directory number: `best_pos` compares
  // (iteration, chunk, step) lexicographically.
  std::tuple<int, int, std::uint64_t> best_pos;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t step = 0;
    // No width specifier: step_dir pads to a *minimum* of 8 digits, and
    // larger steps print more.
    if (std::sscanf(name.c_str(), "step-%" SCNu64, &step) != 1) continue;
    Manifest manifest;
    try {
      manifest = read_manifest(entry.path().string());
    } catch (const Error&) {
      continue;  // missing/truncated/corrupt manifest: incomplete snapshot
    }
    const std::tuple<int, int, std::uint64_t> pos{manifest.iteration, manifest.chunk, step};
    if (!best || pos > best_pos) {
      best = step;
      best_pos = pos;
    }
  }
  return best;
}

Snapshot load_snapshot(const std::string& dir) {
  Snapshot snap;
  snap.manifest = read_manifest(dir);
  snap.shards.reserve(static_cast<usize>(snap.manifest.nranks));
  for (int rank = 0; rank < snap.manifest.nranks; ++rank) {
    Shard shard = read_shard(dir, rank);
    PTYCHO_CHECK(shard.volume.frame == snap.manifest.tiles[static_cast<usize>(rank)].extended,
                 "shard " << rank << " frame does not match the manifest tiling");
    PTYCHO_CHECK(shard.volume.slices() == snap.manifest.slices,
                 "shard " << rank << " slice count does not match the manifest");
    snap.shards.push_back(std::move(shard));
  }
  return snap;
}

Snapshot load_latest(const std::string& root) {
  const auto step = find_latest_step(root);
  PTYCHO_CHECK(step.has_value(), "no complete checkpoint found under '" << root << "'");
  return load_snapshot(step_dir(root, *step));
}

std::optional<Snapshot> load_newest_valid(const std::string& root,
                                          const RestoreFilter& filter) {
  // Collect every candidate first, ranked by run progress (same ordering
  // as find_latest_step), then try them newest-first: a snapshot whose
  // shard set fails validation falls back to the previous complete one
  // instead of aborting the recovery.
  struct Candidate {
    std::tuple<int, int, std::uint64_t> pos;
    std::uint64_t step = 0;
    Manifest manifest;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t step = 0;
    if (std::sscanf(name.c_str(), "step-%" SCNu64, &step) != 1) continue;
    Candidate c;
    try {
      c.manifest = read_manifest(entry.path().string());
    } catch (const Error& e) {
      log::warn() << "skipping snapshot '" << name << "': " << e.what();
      continue;
    }
    c.pos = {c.manifest.iteration, c.manifest.chunk, step};
    c.step = step;
    candidates.push_back(std::move(c));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.pos > b.pos; });

  for (const Candidate& c : candidates) {
    const Manifest& m = c.manifest;
    if (filter.update_mode >= 0 && m.update_mode != filter.update_mode) {
      log::warn() << "skipping snapshot step-" << c.step << ": different update mode";
      continue;
    }
    if (filter.refine_probe >= 0 && (m.refine_probe ? 1 : 0) != filter.refine_probe) {
      log::warn() << "skipping snapshot step-" << c.step << ": different probe refinement";
      continue;
    }
    const bool retiled = (filter.nranks > 0 && m.nranks != filter.nranks) ||
                         (filter.chunks_per_iteration > 0 &&
                          m.chunks_per_iteration != filter.chunks_per_iteration);
    if (retiled && !m.at_iteration_boundary()) {
      // Elastic restore cannot resume a partially swept iteration on a
      // different tiling — only an iteration-boundary snapshot transfers.
      log::warn() << "skipping snapshot step-" << c.step
                  << ": mid-iteration, unusable at a different layout/chunking";
      continue;
    }
    try {
      // Full validation: every shard's footer and CRC must check out.
      return load_snapshot(step_dir(root, c.step));
    } catch (const Error& e) {
      log::warn() << "skipping snapshot step-" << c.step << ": " << e.what();
    }
  }
  return std::nullopt;
}

void check_compatible(const Snapshot& snapshot, const Dataset& dataset) {
  const Manifest& m = snapshot.manifest;
  PTYCHO_CHECK(m.dataset_name == dataset.spec.name,
               "checkpoint is for dataset '" << m.dataset_name << "', not '"
                                             << dataset.spec.name << "'");
  PTYCHO_CHECK(m.probe_count == dataset.probe_count(),
               "checkpoint probe count " << m.probe_count << " != dataset "
                                         << dataset.probe_count());
  PTYCHO_CHECK(m.slices == dataset.spec.slices, "checkpoint slice count "
                                                    << m.slices << " != dataset "
                                                    << dataset.spec.slices);
}

void check_same_solver_flags(const Manifest& manifest, int update_mode, bool refine_probe) {
  PTYCHO_REQUIRE(manifest.update_mode == update_mode && manifest.refine_probe == refine_probe,
                 "checkpoint was taken with a different update mode / probe-refinement "
                 "setting — resuming with changed solver flags would silently diverge");
}

void require_iteration_boundary(const Manifest& manifest) {
  PTYCHO_REQUIRE(manifest.at_iteration_boundary(),
                 "elastic restore requires an iteration-boundary snapshot "
                 "(mid-iteration chunk splits do not transfer across layouts)");
}

}  // namespace ptycho::ckpt
