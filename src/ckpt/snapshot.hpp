// Checkpoint/restore subsystem: versioned snapshots of full solver state.
//
// A snapshot is a directory `<root>/step-NNNNNNNN/` holding one shard per
// rank plus a manifest. The write protocol makes completion atomic without
// any filesystem tricks: every rank writes its own shard, all ranks
// barrier, and rank 0 writes the manifest *last* — so a snapshot is valid
// iff its manifest exists and parses. A rank dying mid-write leaves a
// manifest-less (ignored) directory; `find_latest_step` only ever returns
// complete snapshots.
//
// Snapshots are taken at chunk boundaries, where the Alg. 1 invariant
// guarantees overlap copies of V are identical across ranks. That makes a
// shard set re-tileable: `src/ckpt/elastic.cpp` can restore a K-rank
// snapshot onto K' ranks by assembling from the disjoint *owned* regions
// and redistributing through the fabric. Elastic restore requires an
// iteration-boundary snapshot (chunk == 0): mid-iteration chunk splits are
// partition-dependent, so a partially swept iteration cannot be resumed on
// a different tiling.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "data/dataset.hpp"
#include "partition/tilegrid.hpp"
#include "runtime/cluster.hpp"
#include "tensor/framed.hpp"

namespace ptycho::ckpt {

/// Snapshot format version (bump on any wire-layout change). Readers
/// accept this version only.
/// v2: files carry a trailing CRC32 (see ckpt/serialize.hpp) so torn or
/// bit-rotted shards are detected at restore instead of loading silently.
/// v3: shards no longer carry AccBuf_k, which is zero at every snapshot
/// point (ApplyUpdatePass resets it before any checkpoint hook runs).
inline constexpr std::uint32_t kFormatVersion = 3;

/// When and where solvers take snapshots.
struct Policy {
  std::string directory;  ///< snapshot root; empty disables checkpointing
  int every_chunks = 0;   ///< snapshot every N completed chunks (0 disables)

  [[nodiscard]] bool enabled() const { return every_chunks > 0 && !directory.empty(); }
};

/// One rank's tile geometry as recorded in the manifest (a serializable
/// subset of TileSpec — enough to re-tile on restore).
struct TileInfo {
  int rank = 0;
  Rect owned;     ///< disjoint cover of the field
  Rect extended;  ///< owned + halo (the shard volume's frame)
  std::vector<index_t> own_probes;
};

/// Global snapshot metadata (written once by rank 0).
struct Manifest {
  std::uint32_t version = kFormatVersion;
  std::string dataset_name;
  index_t probe_count = 0;
  index_t slices = 0;
  std::uint64_t step = 0;  ///< global chunk counter at snapshot time
  int iteration = 0;       ///< completed iterations
  int chunk = 0;           ///< completed chunks within the current iteration
  int chunks_per_iteration = 1;
  int nranks = 1;
  bool refine_probe = false;
  int update_mode = 0;  ///< UpdateMode the run used (restore must match)
  std::vector<double> cost_values;  ///< completed-iteration cost history
  std::vector<TileInfo> tiles;      ///< one per rank

  /// True when the snapshot sits between iterations — the precondition for
  /// elastic (K -> K') restore.
  [[nodiscard]] bool at_iteration_boundary() const { return chunk == 0; }
};

/// One rank's captured solver state.
struct Shard {
  int rank = 0;
  double partial_cost = 0.0;  ///< sweep cost accumulated in the current iteration
  RngState rng;               ///< this rank's stream, mid-sequence
  FramedVolume volume;        ///< extended tile of V (halo included)
  CArray2D probe;             ///< this rank's probe wavefield copy
  CArray2D probe_grad;        ///< partially accumulated probe gradient
};

/// A fully loaded snapshot ready for restore.
struct Snapshot {
  Manifest manifest;
  std::vector<Shard> shards;  ///< indexed by rank
};

/// Borrowed view of a rank's live state for writing — solvers serialize
/// straight from their working buffers instead of cloning them (tile
/// volumes are the two largest per-rank allocations; cloning them inside
/// the tracked scope would inflate the reported peak memory).
struct ShardView {
  int rank = 0;
  double partial_cost = 0.0;
  RngState rng;
  const FramedVolume* volume = nullptr;
  /// Ignored: no shard carries AccBuf since v3. Kept so positional
  /// initializers written against the v2 field list still compile.
  const FramedVolume* accbuf = nullptr;
  const CArray2D* probe = nullptr;
  const CArray2D* probe_grad = nullptr;
};

/// Per-run-constant manifest fields, filled once by a solver and reused
/// for every snapshot it takes.
struct RunInfo {
  std::string dataset_name;
  index_t probe_count = 0;
  index_t slices = 0;
  int chunks_per_iteration = 1;
  int nranks = 1;
  bool refine_probe = false;
  int update_mode = 0;
  std::vector<TileInfo> tiles;
};

// ---- on-disk protocol -------------------------------------------------------

/// The global chunk counter for a (iteration, chunk) position.
[[nodiscard]] std::uint64_t chunk_step(int iteration, int chunk, int chunks_per_iteration);

/// True when `policy` calls for a snapshot at this step.
[[nodiscard]] bool snapshot_due(const Policy& policy, std::uint64_t step);

/// Manifest for a snapshot at (iteration, chunk) of the described run.
[[nodiscard]] Manifest make_manifest(const RunInfo& run, int iteration, int chunk,
                                     std::vector<double> cost_values);

/// `<root>/step-NNNNNNNN` for the given global step counter.
[[nodiscard]] std::string step_dir(const std::string& root, std::uint64_t step);

void write_manifest(const std::string& dir, const Manifest& manifest);
[[nodiscard]] Manifest read_manifest(const std::string& dir);

/// Write one rank's shard; returns the bytes written (for the
/// checkpoint_shard_bytes_total metric).
std::uint64_t write_shard(const std::string& dir, const ShardView& shard);
std::uint64_t write_shard(const std::string& dir, const Shard& shard);
[[nodiscard]] Shard read_shard(const std::string& dir, int rank);

/// Step of the most advanced complete snapshot under `root` (ranked by
/// (iteration, chunk), not directory number, so runs resumed with a
/// different chunking into the same directory cannot shadow newer
/// progress with stale snapshots), or nullopt when none exists. Snapshot
/// directories whose manifest is missing, truncated or unreadable are
/// skipped — a crash mid-manifest-write falls back to the previous
/// complete snapshot.
[[nodiscard]] std::optional<std::uint64_t> find_latest_step(const std::string& root);

/// Load manifest + all shards from one snapshot directory.
[[nodiscard]] Snapshot load_snapshot(const std::string& dir);

/// Load the most recent complete snapshot under `root`; throws if none.
[[nodiscard]] Snapshot load_latest(const std::string& root);

/// What a resuming run needs from a snapshot; load_newest_valid skips
/// candidates that cannot satisfy it instead of failing on them.
struct RestoreFilter {
  int nranks = 0;                ///< target rank count (0: accept any)
  int chunks_per_iteration = 0;  ///< target chunking (0: accept any)
  int update_mode = -1;          ///< required solver flag (-1: accept any)
  int refine_probe = -1;         ///< required solver flag (-1: accept any; else 0/1)
};

/// Walk the snapshots under `root` newest-first (by run progress) and
/// return the first one that loads *and validates* completely — manifest
/// and every shard parse, footers and CRCs intact — and that the filter
/// accepts. A snapshot taken at K ranks or a different chunking than the
/// filter asks for is usable only at an iteration boundary (the elastic
/// restore precondition); others are skipped with a warning, falling back
/// to the previous complete snapshot. Returns nullopt when nothing under
/// `root` qualifies. This is the single discovery routine behind both
/// `--restore latest` and automatic in-run recovery.
[[nodiscard]] std::optional<Snapshot> load_newest_valid(const std::string& root,
                                                        const RestoreFilter& filter);

/// Throws unless the snapshot was taken from `dataset` (name, probe count
/// and slice count must match — restoring into a different acquisition is
/// always a user error).
void check_compatible(const Snapshot& snapshot, const Dataset& dataset);

/// Throws when the resuming solver's flags differ from the checkpointed
/// run's: continuing a trajectory under a different update rule or probe
/// handling would silently diverge.
void check_same_solver_flags(const Manifest& manifest, int update_mode, bool refine_probe);

/// Throws unless the snapshot sits at an iteration boundary — the
/// precondition for restoring onto a different layout or chunking.
void require_iteration_boundary(const Manifest& manifest);

// ---- elastic restore (ckpt/elastic.cpp) ------------------------------------

/// Assemble the full-field volume from the shards' disjoint owned regions
/// (the serial restore path, and the K'=1 case of elastic restore).
[[nodiscard]] FramedVolume assemble_volume(const Snapshot& snapshot);

/// True when the snapshot's tiling is exactly `partition` (same rank
/// count, rects and probe ownership) — the cheap same-layout restore path.
[[nodiscard]] bool layout_matches(const Manifest& manifest, const Partition& partition);

/// Collective elastic restore: re-tile a K-rank snapshot onto the calling
/// cluster's K' ranks. Rank 0 reads every old shard's owned region and
/// scatters the pieces of each new rank's extended tile through the
/// fabric; every rank fills `tile_volume` (frame = its new extended rect)
/// and receives the broadcast probe into `probe`. All ranks must pass the
/// same `snapshot` and `partition`.
void scatter_restore(rt::RankContext& ctx, const Snapshot& snapshot,
                     const Partition& partition, FramedVolume& tile_volume, CArray2D& probe);

}  // namespace ptycho::ckpt
