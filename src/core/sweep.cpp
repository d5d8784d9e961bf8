#include "core/sweep.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptycho {

BatchSweeper::BatchSweeper(const GradientEngine& engine, ThreadPool& pool,
                           compact::Format compact_trans)
    : engine_(engine),
      scheduler_(pool),
      // The sweep's only volume mutations go through apply_gradient, which
      // bumps the revision — the transmittance cache's validity contract
      // holds here, for every slot of the pool.
      workspaces_(static_cast<index_t>(engine.dataset().spec.grid.probe_n),
                  engine.dataset().spec.slices, pool.threads(),
                  /*cache_transmittance=*/true, compact_trans) {
  const auto n = static_cast<index_t>(engine_.dataset().spec.grid.probe_n);
  const index_t slices = engine_.dataset().spec.slices;
  item_grad_.reserve(static_cast<usize>(kBatch));
  item_probe_grad_.reserve(static_cast<usize>(kBatch));
  for (index_t k = 0; k < kBatch; ++k) {
    item_grad_.emplace_back(slices, Rect{0, 0, n, n});
    item_probe_grad_.emplace_back(n, n);
  }
  item_cost_.assign(static_cast<usize>(kBatch), 0.0);
}

void BatchSweeper::set_compact_measurements(const compact::FrameStack* frames) {
  compact_meas_ = (frames != nullptr && !frames->empty()) ? frames : nullptr;
  if (compact_meas_ == nullptr) return;
  // Size the per-slot decode scratch now, on the calling thread, so
  // per-rank memory tracking charges it to the owning rank.
  for (int s = 0; s < workspaces_.slots(); ++s) {
    if (workspaces_[s].meas_scratch.empty()) {
      workspaces_[s].meas_scratch = RArray2D(compact_meas_->rows(), compact_meas_->cols());
    }
  }
}

void BatchSweeper::sweep(index_t begin, index_t end, const Probe& probe,
                         const FramedVolume& volume, AccumulationBuffer& accbuf, double& cost,
                         View2D<cplx>* probe_grad, ProbeIdFn probe_id_of,
                         MeasurementFn measurement_of) {
  if (end > begin) {
    static obs::Counter& probes = obs::registry().counter("sweep_probes_total");
    probes.add(static_cast<std::uint64_t>(end - begin));
  }
  for (index_t batch = begin; batch < end; batch += kBatch) {
    const index_t count = std::min(kBatch, end - batch);
    const auto evaluate = [&](index_t k, int slot) {
      const index_t item = batch + k;
      const index_t id = probe_id_of(item);
      const auto uk = static_cast<usize>(k);
      FramedVolume& grad = item_grad_[uk];
      grad.frame = engine_.window(id);
      grad.data.fill(cplx{});
      View2D<cplx> pg_view;
      View2D<cplx>* pg = nullptr;
      if (probe_grad != nullptr) {
        item_probe_grad_[uk].fill(cplx{});
        pg_view = item_probe_grad_[uk].view();
        pg = &pg_view;
      }
      MultisliceWorkspace& ws = workspaces_[slot];
      View2D<const real> meas;
      if (compact_meas_ != nullptr) {
        compact_meas_->decode_into(static_cast<usize>(item), ws.meas_scratch.view());
        meas = ws.meas_scratch.view();
      } else {
        meas = measurement_of(item);
      }
      item_cost_[uk] = engine_.probe_gradient_joint(id, probe, meas, volume, grad, ws, pg);
    };
    {
      // Phase is kNone: the pipeline's SweepPass span already owns the
      // compute attribution; this one only adds batch granularity to traces.
      obs::SpanScope batch_span("sweep-batch");
      scheduler_.dispatch(0, count, evaluate);
    }
    // Ordered merge: identical association to the sequential per-probe
    // loop, so results do not depend on the thread count or slot map.
    for (index_t k = 0; k < count; ++k) {
      const auto uk = static_cast<usize>(k);
      accbuf.accumulate(item_grad_[uk], item_grad_[uk].frame);
      cost += item_cost_[uk];
      if (probe_grad != nullptr) add(item_probe_grad_[uk].view(), *probe_grad);
    }
  }
}

}  // namespace ptycho
