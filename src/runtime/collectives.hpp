// Collective operations built on the point-to-point fabric.
//
// The paper rejects global all-reduce for gradient exchange ("all-reduce
// has large communication overhead and significantly decreases
// scalability", Sec. V) — we implement it anyway: it is the non-APPP
// baseline for Fig. 7b and the reduction used for global cost values.
#pragma once

#include "runtime/cluster.hpp"

namespace ptycho::rt {

/// Binomial-tree allreduce (sum) of a complex vector; every rank ends with
/// the elementwise sum. All ranks must call with equal-sized buffers.
/// `instance` distinguishes overlapping collectives in the same phase
/// (e.g. the per-chunk gradient allreduce uses the chunk counter); it is
/// folded into the stage bits of the tag, so two in-flight collectives
/// with different instances can never match each other's traffic.
void allreduce_sum(RankContext& ctx, std::vector<cplx>& buffer, Phase phase,
                   std::int64_t instance = 0);

/// Allreduce of one double, summed in double at every tree node (the
/// value travels bit for bit in one cplx payload).
[[nodiscard]] double allreduce_sum_scalar(RankContext& ctx, double value, Phase phase,
                                          std::int64_t instance = 0);

/// Broadcast from root (tree).
void broadcast(RankContext& ctx, std::vector<cplx>& buffer, int root, Phase phase,
               std::int64_t instance = 0);

}  // namespace ptycho::rt
