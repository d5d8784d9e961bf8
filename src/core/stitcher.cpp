#include "core/stitcher.hpp"

#include <cstdint>
#include <vector>

#include "data/io.hpp"
#include "runtime/collectives.hpp"
#include "runtime/memtrack.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

namespace {
// Rank 0 assembles the middle slice of the field from every rank's owned
// rows.
void gather_slice(rt::RankContext& ctx, const Partition& partition,
                  const FramedVolume& tile_volume, FramedVolume& image) {
  const Rect& owned = partition.tile(ctx.rank()).owned;
  const index_t slice = tile_volume.slices() / 2;
  if (ctx.rank() != 0) {
    FramedVolume rows(1, owned);
    copy(tile_volume.window(slice, owned), rows.window(0, owned));
    ctx.isend(0, rt::make_tag(rt::Phase::kImage, ctx.rank()), pack_region(rows, owned));
    return;
  }
  image = FramedVolume(1, partition.field());
  copy(tile_volume.window(slice, owned), image.window(0, owned));
  for (int r = 1; r < ctx.nranks(); ++r) {
    unpack_replace_region(ctx.recv(r, rt::make_tag(rt::Phase::kImage, r)), image,
                          partition.tile(r).owned);
  }
}
}  // namespace

void check_output_agreement(rt::RankContext& ctx, const VolumeOutput& output) {
  // One bit each for "has a volume path" and "gathers the image", then the
  // path's 32-bit FNV-1a hash. Summed over the ranks, a bit they agree on
  // counts 0 or nranks; every rank holds the same sums, so every rank
  // reaches the same verdict and none is left waiting.
  std::uint32_t hash = 2166136261u;
  for (const char c : output.path) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  const std::uint64_t bits = (output.path.empty() ? 0u : 1u) | (output.image ? 2u : 0u) |
                             (std::uint64_t{hash} << 2);
  constexpr int kBits = 34;
  std::vector<cplx> counts(kBits / 2);
  for (int b = 0; b < kBits; b += 2) {
    counts[static_cast<usize>(b / 2)] =
        cplx(static_cast<real>((bits >> b) & 1u), static_cast<real>((bits >> (b + 1)) & 1u));
  }
  rt::allreduce_sum(ctx, counts, rt::Phase::kOutput);
  const auto agreed = [&](int b) {
    const cplx c = counts[static_cast<usize>(b / 2)];
    const real n = b % 2 == 0 ? c.real() : c.imag();
    return n == 0 || n == static_cast<real>(ctx.nranks());
  };
  bool same_path = agreed(0);
  for (int b = 2; b < kBits; ++b) same_path = same_path && agreed(b);
  if (!same_path) {
    PTYCHO_FAIL("the ranks were not all given the same --save-volume: each rank writes its "
                "own rows into the one file");
  }
  if (!agreed(1)) {
    PTYCHO_FAIL("the ranks were not all given --image: each rank sends its rows of the "
                "imaged slice to rank 0");
  }
}

void place_owned_region(rt::RankContext& ctx, bool distributed, const Partition& partition,
                        const FramedVolume& tile_volume, const VolumeOutput& output,
                        FramedVolume& assembled, FramedVolume& image, std::mutex& mutex) {
  const Rect& owned = partition.tile(ctx.rank()).owned;
  if (!distributed) {
    std::lock_guard<std::mutex> lock(mutex);
    if (assembled.slices() == 0) {
      const rt::UntrackedScope untracked;
      assembled = FramedVolume(tile_volume.slices(), partition.field());
    }
    copy_region(tile_volume, assembled, owned);
    return;
  }
  if (!output.path.empty()) {
    io::write_volume_region(output.path, partition.field(), tile_volume, owned,
                            /*size_file=*/ctx.rank() == 0);
  }
  if (output.image) gather_slice(ctx, partition, tile_volume, image);
}

FramedVolume stitch_serial(const Partition& partition,
                           const std::vector<FramedVolume>& tile_volumes) {
  PTYCHO_REQUIRE(tile_volumes.size() == static_cast<usize>(partition.nranks()),
                 "one tile volume per rank required");
  const index_t slices = tile_volumes.front().slices();
  FramedVolume full(slices, partition.field());
  for (int r = 0; r < partition.nranks(); ++r) {
    copy_region(tile_volumes[static_cast<usize>(r)], full, partition.tile(r).owned);
  }
  return full;
}

}  // namespace ptycho
