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

/// Split-phase allreduce: construction posts the collective's first
/// non-blocking send where one exists with no prior receive (the reduce
/// tree's leaf senders — odd ranks), and finish() runs the remaining
/// reduce rounds plus the broadcast down. Between the two the caller may
/// do unrelated work or post unrelated traffic — the eager-isend fabric
/// matches messages by (src, tag), so interleaved collectives with
/// distinct phase tags cannot cross. Every rank must construct and finish
/// in the same program order; `buffer` must stay alive and untouched until
/// finish() returns. allreduce_sum() is exactly construct + finish.
class AllreduceHandle {
 public:
  AllreduceHandle(RankContext& ctx, std::vector<cplx>& buffer, Phase phase,
                  std::int64_t instance = 0);

  AllreduceHandle(const AllreduceHandle&) = delete;
  AllreduceHandle& operator=(const AllreduceHandle&) = delete;

  /// Complete the collective; `buffer` then holds the global sum on every
  /// rank. Must be called exactly once.
  void finish();

 private:
  RankContext& ctx_;
  std::vector<cplx>& buffer_;
  Phase phase_;
  std::int64_t instance_;
  bool posted_ = false;    ///< the leaf send went out at construction
  bool finished_ = false;
};

/// Allreduce of one double, summed in double at every tree node (the
/// value travels bit for bit in one cplx payload).
[[nodiscard]] double allreduce_sum_scalar(RankContext& ctx, double value, Phase phase,
                                          std::int64_t instance = 0);

/// Broadcast from root (tree).
void broadcast(RankContext& ctx, std::vector<cplx>& buffer, int root, Phase phase,
               std::int64_t instance = 0);

}  // namespace ptycho::rt
