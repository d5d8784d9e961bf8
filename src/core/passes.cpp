#include "core/passes.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"

namespace ptycho {

const char* to_string(PassScheme scheme) {
  switch (scheme) {
    case PassScheme::kSweep: return "sweep";
    case PassScheme::kDirectNeighbors: return "direct-neighbors";
  }
  return "?";
}

PassEngine::PassEngine(const Partition& partition, int rank)
    : partition_(partition), rank_(rank), card_(cardinal_overlaps(partition, rank)) {
  for (int nb : partition.mesh().neighbors8(rank)) {
    const Rect overlap = partition.overlap(rank, nb);
    if (!overlap.empty()) neighbor8_.emplace_back(nb, overlap);
  }
}

void PassEngine::run_sweep(rt::RankContext& ctx, FramedVolume& buf) {
  const std::int64_t stage = sweep_counter_++;

  // Vertical forward: receive-accumulate from north, then send south.
  // The receive *must* precede the send so contributions chain down the
  // whole column (Fig. 4(a)).
  if (card_.north_rank >= 0 && !card_.north.empty()) {
    std::vector<cplx> payload =
        ctx.recv(card_.north_rank, rt::make_tag(rt::Phase::kVerticalForward, stage));
    unpack_add_region(payload, buf, card_.north);
  }
  if (card_.south_rank >= 0 && !card_.south.empty()) {
    ctx.isend(card_.south_rank, rt::make_tag(rt::Phase::kVerticalForward, stage),
              pack_region(buf, card_.south));
  }

  // Vertical backward: the southern tile's accumulated buffer replaces
  // ours over the overlap, then we forward our (now complete) buffer
  // north (Fig. 4(b)).
  if (card_.south_rank >= 0 && !card_.south.empty()) {
    std::vector<cplx> payload =
        ctx.recv(card_.south_rank, rt::make_tag(rt::Phase::kVerticalBackward, stage));
    unpack_replace_region(payload, buf, card_.south);
  }
  if (card_.north_rank >= 0 && !card_.north.empty()) {
    ctx.isend(card_.north_rank, rt::make_tag(rt::Phase::kVerticalBackward, stage),
              pack_region(buf, card_.north));
  }

  // Horizontal forward (Fig. 4(c)). Note the cross-direction pipelining of
  // Sec. V: once this rank has posted its vertical-backward send it enters
  // the horizontal chain immediately — ranks in other rows may still be in
  // the vertical passes.
  if (card_.west_rank >= 0 && !card_.west.empty()) {
    std::vector<cplx> payload =
        ctx.recv(card_.west_rank, rt::make_tag(rt::Phase::kHorizontalForward, stage));
    unpack_add_region(payload, buf, card_.west);
  }
  if (card_.east_rank >= 0 && !card_.east.empty()) {
    ctx.isend(card_.east_rank, rt::make_tag(rt::Phase::kHorizontalForward, stage),
              pack_region(buf, card_.east));
  }

  // Horizontal backward (Fig. 4(d)).
  if (card_.east_rank >= 0 && !card_.east.empty()) {
    std::vector<cplx> payload =
        ctx.recv(card_.east_rank, rt::make_tag(rt::Phase::kHorizontalBackward, stage));
    unpack_replace_region(payload, buf, card_.east);
  }
  if (card_.west_rank >= 0 && !card_.west.empty()) {
    ctx.isend(card_.west_rank, rt::make_tag(rt::Phase::kHorizontalBackward, stage),
              pack_region(buf, card_.west));
  }
}

void PassEngine::run_direct(rt::RankContext& ctx, FramedVolume& buf) {
  const std::int64_t stage = direct_counter_++;
  // Post all sends first (eager fabric: cannot deadlock), then accumulate
  // every neighbour's contribution.
  for (const auto& [nb, overlap] : neighbor8_) {
    ctx.isend(nb, rt::make_tag(rt::Phase::kDirect, stage), pack_region(buf, overlap));
  }
  for (const auto& [nb, overlap] : neighbor8_) {
    std::vector<cplx> payload = ctx.recv(nb, rt::make_tag(rt::Phase::kDirect, stage));
    unpack_add_region(payload, buf, overlap);
  }
}

void PassEngine::run_allreduce(rt::RankContext& ctx, FramedVolume& buf) {
  const std::int64_t stage = allreduce_counter_++;
  const Rect field = partition_.field();
  const index_t slices = buf.slices();

  // Scatter the local buffer into a full-field dense vector.
  std::vector<cplx> dense(
      static_cast<usize>(field.area() * slices), cplx{});
  const Rect ext = buf.frame;
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < ext.h; ++y) {
      const index_t gy = ext.y0 + y - field.y0;
      const usize base = static_cast<usize>((s * field.h + gy) * field.w);
      for (index_t x = 0; x < ext.w; ++x) {
        const index_t gx = ext.x0 + x - field.x0;
        dense[base + static_cast<usize>(gx)] = buf.data(s, y, x);
      }
    }
  }
  rt::allreduce_sum(ctx, dense, rt::Phase::kAllreduce, stage);
  // Gather back: replace the local buffer with the exact global sum.
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < ext.h; ++y) {
      const index_t gy = ext.y0 + y - field.y0;
      const usize base = static_cast<usize>((s * field.h + gy) * field.w);
      for (index_t x = 0; x < ext.w; ++x) {
        const index_t gx = ext.x0 + x - field.x0;
        buf.data(s, y, x) = dense[base + static_cast<usize>(gx)];
      }
    }
  }
}

// ---- pipeline passes --------------------------------------------------------

SweepPass::SweepPass(const GradientEngine& engine, UpdateMode mode, int threads, Items items,
                     RefineSchedule refine, PrecisionPolicy precision)
    : engine_(engine), mode_(mode), items_(items), refine_(refine), precision_(precision) {
  // Compact measurement frames are indexed by ITEM: frame i of the stack
  // is the frame of probe_id(i).
  if (precision_.storage != compact::Format::kNone) {
    const std::vector<RArray2D>& frames = engine_.dataset().measurements;
    if (items_.ids != nullptr) {
      compact_meas_.emplace(frames, *items_.ids, precision_.storage);
    } else {
      compact_meas_.emplace(frames, precision_.storage);
    }
  }
  if (mode_ == UpdateMode::kFullBatch) {
    pool_.emplace(threads);
    sweeper_.emplace(engine_, *pool_, precision_.storage);
    if (compact_meas_) sweeper_->set_compact_measurements(&*compact_meas_);
  } else {
    // SGD sweeps only ever mutate the volume through apply_gradient, so
    // the transmittance cache contract holds.
    workspace_.emplace(engine_.make_workspace(precision_.storage));
    workspace_->cache_transmittance = true;
    const auto n = static_cast<index_t>(engine_.dataset().spec.grid.probe_n);
    grad_scratch_.emplace(engine_.dataset().spec.slices, Rect{0, 0, n, n});
    if (compact_meas_) {
      workspace_->meas_scratch = RArray2D(compact_meas_->rows(), compact_meas_->cols());
    }
  }
}

void SweepPass::on_chunk(SolverState& state, const StepPoint& point) {
  // Phase accounting (kCompute) comes from the pipeline's SpanScope around
  // this hook — see Pass::phase().
  const bool refine_now = refine_.due(point.iteration);
  if (mode_ == UpdateMode::kFullBatch) {
    View2D<cplx> pg_view = state.probe_grad_field->view();
    sweeper_->sweep(
        point.begin, point.end, *state.probe, *state.volume, *state.accbuf, state.sweep_cost,
        refine_now ? &pg_view : nullptr, [this](index_t item) { return probe_id(item); },
        [this](index_t item) { return measurement(item); });
  } else {
    if (point.end > point.begin && obs::metrics_enabled()) {
      // Full-batch sweeps are counted inside BatchSweeper.
      static obs::Counter& probes = obs::registry().counter("sweep_probes_total");
      probes.add(static_cast<std::uint64_t>(point.end - point.begin));
    }
    for (index_t i = point.begin; i < point.end; ++i) {
      const index_t id = probe_id(i);
      grad_scratch_->frame = engine_.window(id);
      grad_scratch_->data.fill(cplx{});
      View2D<cplx> pg_view = state.probe_grad_field->view();
      View2D<const real> meas;
      if (compact_meas_) {
        compact_meas_->decode_into(static_cast<usize>(i), workspace_->meas_scratch.view());
        meas = workspace_->meas_scratch.view();
      } else {
        meas = measurement(i);
      }
      state.sweep_cost += engine_.probe_gradient_joint(
          id, *state.probe, meas, *state.volume, *grad_scratch_, *workspace_,
          refine_now ? &pg_view : nullptr);
      accumulate_and_apply_gradient(state.accbuf->volume(), *state.volume, *grad_scratch_,
                                    grad_scratch_->frame, state.step);
    }
  }
}

void SyncGradientsPass::on_chunk(SolverState& state, const StepPoint& point) {
  if (mode_ == UpdateMode::kSgd) {
    // Undo the chunk's local updates now, while AccBuf still holds exactly
    // the own contributions (no extra buffer needed); the post-sync apply
    // then installs the full total once.
    obs::SpanScope undo("sgd-undo", obs::Phase::kUpdate, point.iteration, point.chunk);
    apply_gradient(*state.volume, state.accbuf->volume(), state.accbuf->frame(), -state.step);
  }
  sync_.synchronize(*state.ctx, state.accbuf->volume());
}

void ApplyUpdatePass::on_chunk(SolverState& state, const StepPoint& point) {
  (void)point;
  // kUpdate accounting comes from the pipeline's SpanScope (Pass::phase()).
  if (mode_ == UpdateMode::kFullBatch || apply_in_sgd_) {
    apply_gradient(*state.volume, state.accbuf->volume(), state.accbuf->frame(), state.step);
  }
  state.accbuf->reset();
}

void FaultPointPass::on_chunk(SolverState& state, const StepPoint& point) {
  state.ctx->fault_point(static_cast<std::uint64_t>(point.iteration) *
                             static_cast<std::uint64_t>(point.chunks) +
                         static_cast<std::uint64_t>(point.chunk) + 1);
}

void ProbeRefinePass::on_iteration(SolverState& state, int iteration) {
  if (!refine_.due(iteration)) return;
  CArray2D& grad = *state.probe_grad_field;
  if (state.ctx != nullptr) {
    // The probe is global: sum gradient contributions across ranks and
    // apply the identical update everywhere.
    std::vector<cplx> flat(static_cast<usize>(grad.size()));
    std::copy_n(grad.data(), grad.size(), flat.data());
    rt::allreduce_sum(*state.ctx, flat, rt::Phase::kProbe);
    std::copy_n(flat.data(), grad.size(), grad.data());
  }
  const real probe_step =
      probe_step_ / static_cast<real>(std::max<index_t>(1, probe_count_));
  axpy(cplx(-probe_step, 0), grad.view(), state.probe->mutable_field().view());
  const double energy = state.probe->total_intensity();
  if (energy > 0.0) {
    scale(cplx(static_cast<real>(std::sqrt(initial_energy_ / energy)), 0),
          state.probe->mutable_field().view());
  }
  grad.fill(cplx{});
}

void CostRecordPass::on_iteration(SolverState& state, int iteration) {
  if (!record_) return;
  const double cost = state.ctx != nullptr
                          ? rt::allreduce_sum_scalar(*state.ctx, state.sweep_cost, rt::Phase::kCost)
                          : state.sweep_cost;
  // Every rank holds the same reduced cost, so every rank fails here at
  // the same iteration and none is left waiting on a peer.
  PTYCHO_CHECK(std::isfinite(cost), "the cost of iteration " << iteration + 1 << " is " << cost
                                        << ": the reconstruction diverged");
  if (state.ctx == nullptr) {
    state.cost->record(cost);
    return;
  }
  if (state.ctx->rank() != 0) return;
  std::lock_guard<std::mutex> lock(*state.cost_mutex);
  state.cost->record(cost);
}

void ProgressPass::on_iteration(SolverState& state, int iteration) {
  if (every_ <= 0) return;
  if (state.ctx != nullptr && state.ctx->rank() != 0) return;
  ++iterations_since_last_;
  if ((iteration + 1) % every_ != 0) return;
  // Latest recorded global cost when available (CostRecordPass runs
  // earlier in the list), else this rank's running sweep cost.
  double cost = state.sweep_cost;
  bool have_cost = false;
  if (state.cost != nullptr) {
    std::unique_lock<std::mutex> lock;
    if (state.cost_mutex != nullptr) lock = std::unique_lock<std::mutex>(*state.cost_mutex);
    if (!state.cost->values().empty()) {
      cost = state.cost->last();
      have_cost = true;
    }
  }
  const double elapsed = since_last_.seconds();
  const double rate = elapsed > 0.0
                          ? static_cast<double>(probes_) * iterations_since_last_ / elapsed
                          : 0.0;
  log::info() << "iteration " << (iteration + 1) << "/" << total_ << "  cost "
              << (have_cost ? "" : "~") << cost << "  " << rate << " probes/s";
  since_last_.reset();
  iterations_since_last_ = 0;
}

void CheckpointPass::on_chunk(SolverState& state, const StepPoint& point) {
  // Mid-iteration boundary only; the iteration hook takes the last one
  // (after the cost record, so the manifest carries the full
  // completed-iteration history).
  if (point.chunk + 1 < point.chunks) {
    maybe_write(state, point.iteration, point.chunk + 1, state.sweep_cost);
  }
}

void CheckpointPass::on_iteration(SolverState& state, int iteration) {
  maybe_write(state, iteration + 1, 0, 0.0);
}

PassAccess CheckpointPass::access_if_due(int next_iteration, int next_chunk) const {
  const std::uint64_t step_count =
      ckpt::chunk_step(next_iteration, next_chunk, run_.chunks_per_iteration);
  if (!ckpt::snapshot_due(policy_, step_count)) return {};
  PassAccess a;
  a.read(Resource::kVolume)
      .read(Resource::kProbe)
      .read(Resource::kProbeGrad)
      .read(Resource::kCost)
      .write(Resource::kCheckpointDir);
  return a;
}

void CheckpointPass::maybe_write(SolverState& state, int next_iteration, int next_chunk,
                                 double partial_cost) {
  // `next_iteration`/`next_chunk` name the position a restored run would
  // resume at; the global step counter (completed chunks) keys the
  // snapshot dir.
  const std::uint64_t step_count =
      ckpt::chunk_step(next_iteration, next_chunk, run_.chunks_per_iteration);
  if (!ckpt::snapshot_due(policy_, step_count)) return;
  obs::SpanScope ckpt_span("snapshot-write", obs::Phase::kCheckpoint, next_iteration,
                           next_chunk);
  const std::string dir = ckpt::step_dir(policy_.directory, step_count);
  const int rank = state.ctx != nullptr ? state.ctx->rank() : 0;
  // Fabric-free half only; runs on the background slot. Every rank creates
  // the directory itself (idempotent) instead of waiting on a rank-0
  // barrier.
  std::filesystem::create_directories(dir);
  const std::uint64_t shard_bytes = ckpt::write_shard(
      dir, ckpt::ShardView{rank, partial_cost,
                           state.ctx != nullptr ? state.ctx->rng().state() : RngState{},
                           state.volume, nullptr, &state.probe->field(),
                           state.probe_grad_field});
  {
    static obs::Counter& shards = obs::registry().counter("checkpoint_shards_total");
    static obs::Counter& bytes = obs::registry().counter("checkpoint_shard_bytes_total");
    shards.add(1);
    bytes.add(shard_bytes);
  }
  PendingSnapshot job;
  job.dir = dir;
  job.next_iteration = next_iteration;
  job.next_chunk = next_chunk;
  if (rank == 0) {
    // The cost history is captured here — the executor's kCost hazard
    // guarantees no later cost-record ran yet, so the manifest carries the
    // history as of this snapshot's position.
    std::unique_lock<std::mutex> lock;
    if (state.cost_mutex != nullptr) lock = std::unique_lock<std::mutex>(*state.cost_mutex);
    job.cost_values = state.cost->values();
  }
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_.push_back(std::move(job));
}

void CheckpointPass::write_manifest_completion(const std::string& dir, int next_iteration,
                                               int next_chunk,
                                               std::vector<double> cost_values) {
  WallTimer manifest_timer;
  ckpt::write_manifest(
      dir, ckpt::make_manifest(run_, next_iteration, next_chunk, std::move(cost_values)));
  static obs::Counter& snapshots = obs::registry().counter("checkpoint_snapshots_total");
  snapshots.add(1);
  static obs::Histogram& manifest_seconds =
      obs::registry().histogram("checkpoint_manifest_seconds");
  manifest_seconds.observe(manifest_timer.seconds());
}

void CheckpointPass::finalize_pending(SolverState& state) {
  std::vector<PendingSnapshot> jobs;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    jobs.swap(pending_);
  }
  for (PendingSnapshot& job : jobs) {
    obs::SpanScope span("snapshot-finalize", obs::Phase::kCheckpoint, job.next_iteration,
                        job.next_chunk);
    // All ranks hold the same pending set here (the executor fenced on the
    // shard write before this hook ran), so the barrier counts match.
    if (state.ctx != nullptr) state.ctx->barrier();
    const int rank = state.ctx != nullptr ? state.ctx->rank() : 0;
    if (rank == 0) {
      write_manifest_completion(job.dir, job.next_iteration, job.next_chunk,
                                std::move(job.cost_values));
    }
  }
}

HveLocalSweepPass::HveLocalSweepPass(const GradientEngine& engine,
                                     const std::vector<index_t>& probes, usize own_count,
                                     int epochs, UpdateMode mode, int threads,
                                     PrecisionPolicy precision)
    : engine_(engine),
      probes_(probes),
      own_count_(own_count),
      epochs_(epochs),
      mode_(mode) {
  if (mode_ == UpdateMode::kFullBatch) {
    pool_.emplace(threads);
    sweeper_.emplace(engine_, *pool_, precision.storage);
    if (precision.storage != compact::Format::kNone && !probes_.empty()) {
      compact_meas_.emplace(engine_.dataset().measurements, probes_, precision.storage);
      sweeper_->set_compact_measurements(&*compact_meas_);
    }
  } else {
    workspace_.emplace(engine.make_workspace());
    const auto n = static_cast<index_t>(engine.dataset().spec.grid.probe_n);
    grad_scratch_.emplace(engine.dataset().spec.slices, Rect{0, 0, n, n});
  }
}

void HveLocalSweepPass::on_chunk(SolverState& state, const StepPoint& point) {
  (void)point;
  // kCompute accounting comes from the pipeline's SpanScope (Pass::phase()).
  if (obs::metrics_enabled() && !probes_.empty() && mode_ == UpdateMode::kSgd) {
    // Full-batch sweeps are counted inside BatchSweeper.
    static obs::Counter& probes = obs::registry().counter("sweep_probes_total");
    probes.add(static_cast<std::uint64_t>(probes_.size()) *
               static_cast<std::uint64_t>(std::max(1, epochs_)));
  }
  if (mode_ == UpdateMode::kFullBatch) {
    if (!accbuf_ && !probes_.empty()) {
      // Sized off the tile's extended window, allocated on the rank lane
      // so per-rank memory tracking charges it correctly.
      accbuf_.emplace(state.volume->slices(), state.volume->frame);
    }
    const auto n = static_cast<index_t>(probes_.size());
    const auto own = static_cast<index_t>(own_count_);
    const Probe& probe = engine_.dataset().probe;
    const auto id_of = [this](index_t item) { return probes_[static_cast<usize>(item)]; };
    const auto meas_of = [this, id_of](index_t item) {
      return engine_.dataset().frame(id_of(item)).view();
    };
    for (int epoch = 0; epoch < epochs_; ++epoch) {
      if (n == 0) break;
      // Owned probes count toward the recorded cost on the first epoch
      // only; replicated probes' costs are always discarded (their owners
      // count them).
      double discarded = 0.0;
      double& own_cost = epoch == 0 ? state.sweep_cost : discarded;
      if (own > 0) {
        sweeper_->sweep(0, own, probe, *state.volume, *accbuf_, own_cost, nullptr, id_of,
                        meas_of);
      }
      if (own < n) {
        sweeper_->sweep(own, n, probe, *state.volume, *accbuf_, discarded, nullptr, id_of,
                        meas_of);
      }
      apply_gradient(*state.volume, accbuf_->volume(), accbuf_->frame(), state.step);
      accbuf_->reset();
    }
    return;
  }
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    for (usize p = 0; p < probes_.size(); ++p) {
      const index_t id = probes_[p];
      grad_scratch_->frame = engine_.window(id);
      grad_scratch_->data.fill(cplx{});
      const double f =
          engine_.probe_gradient_joint(id, engine_.dataset().probe,
                                       engine_.dataset().frame(id).view(), *state.volume,
                                       *grad_scratch_, *workspace_);
      // Count the cost of *owned* probes only so the recorded global cost
      // sums each f_i exactly once.
      if (p < own_count_ && epoch == 0) state.sweep_cost += f;
      apply_gradient(*state.volume, *grad_scratch_, grad_scratch_->frame, state.step);
    }
  }
}

void HaloPastePass::on_chunk(SolverState& state, const StepPoint& point) {
  (void)point;
  rt::RankContext& ctx = *state.ctx;
  ctx.barrier();
  const std::int64_t stage = round_++;
  for (const PasteEdge& edge : pastes_) {
    if (edge.src == ctx.rank()) {
      ctx.isend(edge.dst, rt::make_tag(rt::Phase::kPaste, stage),
                pack_region(*state.volume, edge.region));
    }
  }
  for (const PasteEdge& edge : pastes_) {
    if (edge.dst == ctx.rank()) {
      std::vector<cplx> payload = ctx.recv(edge.src, rt::make_tag(rt::Phase::kPaste, stage));
      unpack_replace_region(payload, *state.volume, edge.region);
    }
  }
}

}  // namespace ptycho
