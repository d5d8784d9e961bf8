// Final assembly: "abandon halos and stitch together non-halo tiles into a
// final reconstruction V" (Alg. 1 step 20) — without a gather. Each rank
// leaves its owned region where the result lives, so no rank ever holds
// the full field.
#pragma once

#include <mutex>
#include <string>

#include "partition/tilegrid.hpp"
#include "runtime/cluster.hpp"
#include "tensor/framed.hpp"

namespace ptycho {

/// Where the ranks of a socket run leave the result. In-process runs
/// ignore it: their ranks assemble the volume the solver returns.
struct VolumeOutput {
  /// The volume file every rank writes its owned rows into ("" = none).
  std::string path;
  /// Rank 0 gathers the middle slice whole for an image: the only part of
  /// the field that ever sits in one process.
  bool image = false;
};

/// Collective over a socket run's ranks, before any of them writes: throws
/// the same ptycho::Error on every rank unless all were given the same
/// output (one volume path, or none; all or none gathering the image).
/// Each rank writes only its own rows, so a rank without the path would
/// leave holes in the file, and rank 0 would wait forever for image rows
/// from a rank that does not send them.
void check_output_agreement(rt::RankContext& ctx, const VolumeOutput& output);

/// Alg. 1 step 20 for one rank, once its tile volume is final.
///
/// In-process (`distributed` false), every rank copies its owned region
/// into `assembled`, under `mutex`. The first rank there allocates it
/// field-sized with allocation tracking suspended: the result is no
/// rank's memory. No fabric message is sent.
///
/// A socket rank writes its owned rows into output.path at the offsets
/// the field gives them; rank 0 also sizes the file. The owned regions
/// tile the field, so the writes need no barrier and no message. When
/// output.image is set, each rank sends the owned rows of the middle slice
/// to rank 0, which assembles that one slice into `image` (1 x field).
void place_owned_region(rt::RankContext& ctx, bool distributed, const Partition& partition,
                        const FramedVolume& tile_volume, const VolumeOutput& output,
                        FramedVolume& assembled, FramedVolume& image, std::mutex& mutex);

/// Serial helper for tests: assemble from a full set of tile volumes.
[[nodiscard]] FramedVolume stitch_serial(const Partition& partition,
                                         const std::vector<FramedVolume>& tile_volumes);

}  // namespace ptycho
