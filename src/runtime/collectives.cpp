#include "runtime/collectives.hpp"

#include <array>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptycho::rt {

namespace {
// Stage layout within a phase: [instance:32][step:15][down:1]. The tree
// step doubles up to nranks (so 15 bits covers 16k ranks) and the caller's
// instance counter keeps overlapping collectives in the same phase apart;
// repeated collectives with the same (phase, instance) still match
// correctly because the fabric queues are FIFO per (src, tag).
Tag stage_tag(Phase phase, std::int64_t instance, int step, bool down) {
  const std::int64_t stage = ((instance & 0xffffffff) << 16) |
                             (static_cast<std::int64_t>(step) << 1) | (down ? 1 : 0);
  return make_tag(phase, stage);
}

/// How a reduce-tree node folds a child's buffer into its own.
using Combine = void (*)(std::vector<cplx>& acc, const std::vector<cplx>& incoming);

void add_cplx(std::vector<cplx>& acc, const std::vector<cplx>& incoming) {
  PTYCHO_CHECK(incoming.size() == acc.size(), "allreduce buffer size mismatch");
  for (usize i = 0; i < acc.size(); ++i) acc[i] += incoming[i];
}

/// A double carried bit for bit in the 8 bytes of one cplx.
cplx pack_f64(double value) {
  const auto halves = std::bit_cast<std::array<real, 2>>(value);
  return {halves[0], halves[1]};
}

double unpack_f64(const cplx& packed) {
  return std::bit_cast<double>(std::array<real, 2>{packed.real(), packed.imag()});
}

void add_f64(std::vector<cplx>& acc, const std::vector<cplx>& incoming) {
  PTYCHO_CHECK(incoming.size() == 1 && acc.size() == 1, "allreduce buffer size mismatch");
  acc[0] = pack_f64(unpack_f64(acc[0]) + unpack_f64(incoming[0]));
}

void count_allreduce(usize bytes) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::registry().counter("collective_allreduce_total");
  static obs::Counter& total = obs::registry().counter("collective_allreduce_bytes_total");
  calls.add(1);
  total.add(bytes);
}

/// Send `buffer` from rank 0 down the binomial tree: every rank ends with
/// rank 0's buffer.
void broadcast_down(RankContext& ctx, std::vector<cplx>& buffer, Phase phase,
                    std::int64_t instance) {
  const int nranks = ctx.nranks();
  const int rank = ctx.rank();
  int highest = 1;
  while (highest < nranks) highest <<= 1;
  for (int step = highest >> 1; step >= 1; step >>= 1) {
    if ((rank & (2 * step - 1)) == 0 && rank + step < nranks) {
      ctx.isend(rank + step, stage_tag(phase, instance, step, true), std::vector<cplx>(buffer));
    } else if ((rank & (2 * step - 1)) == step) {
      buffer = ctx.recv(rank - step, stage_tag(phase, instance, step, true));
    }
  }
}

/// Reduce to rank 0 over a binomial tree, then broadcast the result back
/// down the same tree.
void reduce_and_broadcast(RankContext& ctx, std::vector<cplx>& buffer, Phase phase,
                          std::int64_t instance, Combine combine) {
  const int nranks = ctx.nranks();
  const int rank = ctx.rank();
  for (int step = 1; step < nranks; step <<= 1) {
    if ((rank & step) != 0) {
      ctx.isend(rank - step, stage_tag(phase, instance, step, false), std::move(buffer));
      buffer.clear();
      break;
    }
    if (rank + step < nranks) {
      combine(buffer, ctx.recv(rank + step, stage_tag(phase, instance, step, false)));
    }
  }
  broadcast_down(ctx, buffer, phase, instance);
}

}  // namespace

void allreduce_sum(RankContext& ctx, std::vector<cplx>& buffer, Phase phase,
                   std::int64_t instance) {
  // Phase kNone: the comm/wait time is attributed by isend/recv inside;
  // the span only marks the collective's extent in the trace.
  obs::SpanScope span("allreduce");
  count_allreduce(buffer.size() * sizeof(cplx));
  reduce_and_broadcast(ctx, buffer, phase, instance, add_cplx);
}

double allreduce_sum_scalar(RankContext& ctx, double value, Phase phase,
                            std::int64_t instance) {
  // Same tree and tags as allreduce_sum, but every node adds in double:
  // a tiled run's cost keeps the range and rounding of a double sum, and
  // the fixed tree keeps it identical across transports.
  obs::SpanScope span("allreduce");
  count_allreduce(sizeof(cplx));
  std::vector<cplx> packed{pack_f64(value)};
  reduce_and_broadcast(ctx, packed, phase, instance, add_f64);
  return unpack_f64(packed[0]);
}

void broadcast(RankContext& ctx, std::vector<cplx>& buffer, int root, Phase phase,
               std::int64_t instance) {
  obs::SpanScope span("broadcast");
  if (obs::metrics_enabled()) {
    static obs::Counter& calls = obs::registry().counter("collective_broadcast_total");
    static obs::Counter& bytes = obs::registry().counter("collective_broadcast_bytes_total");
    calls.add(1);
    bytes.add(buffer.size() * sizeof(cplx));
  }
  PTYCHO_CHECK(root == 0, "broadcast currently supports root 0");
  broadcast_down(ctx, buffer, phase, instance);
}

}  // namespace ptycho::rt
