#include "core/serial_solver.hpp"

#include <cmath>
#include <memory>
#include <numeric>

#include "common/timer.hpp"
#include "core/accbuf.hpp"
#include "core/passes.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"

namespace ptycho {

SerialResult reconstruct_serial(const Dataset& dataset, const SerialConfig& config,
                                const FramedVolume* initial) {
  PTYCHO_REQUIRE(config.iterations >= 1, "need at least one iteration");
  PTYCHO_REQUIRE(config.chunks_per_iteration >= 1, "chunks_per_iteration must be >= 1");
  PTYCHO_REQUIRE(initial == nullptr || config.restore == nullptr,
                 "cannot combine a checkpoint restore with an initial guess");
  WallTimer timer;

  const Rect field = dataset.field();
  const index_t slices = dataset.spec.slices;
  const index_t probe_count = dataset.probe_count();
  const int chunks = config.chunks_per_iteration;

  SerialResult result;
  Probe probe = dataset.probe.clone();
  CArray2D probe_grad_field(probe.n(), probe.n());

  // --- restore ---------------------------------------------------------------
  int start_iteration = 0;
  int start_chunk = 0;
  double restored_partial_cost = 0.0;
  if (config.restore != nullptr) {
    const ckpt::Snapshot& snap = *config.restore;
    ckpt::check_compatible(snap, dataset);
    const ckpt::Manifest& m = snap.manifest;
    ckpt::check_same_solver_flags(m, static_cast<int>(config.mode), config.refine_probe);
    start_iteration = m.iteration;
    if (m.nranks == 1 && m.chunks_per_iteration == chunks) {
      // Exact resume: single-rank snapshot with matching chunking restores
      // the full mid-iteration state (volume, probe gradient, sweep cost).
      result.volume = snap.shards[0].volume.clone();
      start_chunk = m.chunk;
      restored_partial_cost = snap.shards[0].partial_cost;
      if (snap.shards[0].probe_grad.rows() == probe_grad_field.rows()) {
        probe_grad_field = snap.shards[0].probe_grad.clone();
      }
    } else {
      ckpt::require_iteration_boundary(m);
      result.volume = ckpt::assemble_volume(snap);
    }
    PTYCHO_CHECK(snap.shards[0].probe.rows() == probe.n(),
                 "snapshot probe size does not match the dataset probe");
    probe = Probe(snap.shards[0].probe.clone());
    result.cost.assign(m.cost_values);
  } else {
    result.volume = initial != nullptr ? initial->clone() : make_vacuum_volume(field, slices);
  }
  PTYCHO_REQUIRE(result.volume.frame.contains(field), "initial guess does not cover the field");

  GradientEngine engine(dataset);
  const real step = config.step * engine.step_scale();
  const double probe_energy = probe.total_intensity();
  AccumulationBuffer accbuf(slices, result.volume.frame);

  // Run-constant manifest fields, shared by every snapshot this run takes.
  ckpt::RunInfo run;
  run.dataset_name = dataset.spec.name;
  run.probe_count = probe_count;
  run.slices = slices;
  run.chunks_per_iteration = chunks;
  run.nranks = 1;
  run.refine_probe = config.refine_probe;
  run.update_mode = static_cast<int>(config.mode);
  {
    ckpt::TileInfo tile;
    tile.rank = 0;
    tile.owned = field;
    tile.extended = result.volume.frame;
    tile.own_probes.resize(static_cast<usize>(probe_count));
    std::iota(tile.own_probes.begin(), tile.own_probes.end(), index_t{0});
    run.tiles.push_back(std::move(tile));
  }

  // Single-rank pass graph: sweep -> update -> checkpoint finalize ->
  // probe refinement -> convergence record -> checkpoint. No sync/fault
  // passes — there is no fabric — and the SGD update delta is zero with
  // one rank, so the update pass only applies in full-batch mode. The
  // checkpoint shard write runs on the background slot and the finalize
  // pass completes the manifest on the rank lane.
  const RefineSchedule refine{config.refine_probe, config.probe_warmup_iterations};
  ReconstructionPipeline pipeline;
  auto ckpt_pass = std::make_unique<CheckpointPass>(config.exec.checkpoint, std::move(run));
  pipeline.emplace<SweepPass>(engine, config.mode, config.exec.threads, SweepPass::Items{},
                              refine);
  pipeline.emplace<ApplyUpdatePass>(config.mode, /*apply_in_sgd=*/false);
  pipeline.emplace<CheckpointFinalizePass>(*ckpt_pass);
  pipeline.emplace<ProbeRefinePass>(refine, config.probe_step, probe_count, probe_energy);
  pipeline.emplace<CostRecordPass>(config.record_cost);
  if (config.exec.progress_every > 0) {
    pipeline.emplace<ProgressPass>(config.exec.progress_every, probe_count, config.iterations);
  }
  pipeline.add(std::move(ckpt_pass));

  SolverState state;
  state.volume = &result.volume;
  state.probe = &probe;
  state.accbuf = &accbuf;
  state.probe_grad_field = &probe_grad_field;
  state.step = step;
  state.cost = &result.cost;

  PipelineSchedule schedule;
  schedule.iterations = config.iterations;
  schedule.chunks_per_iteration = chunks;
  schedule.start_iteration = start_iteration;
  schedule.start_chunk = start_chunk;
  schedule.restored_partial_cost = restored_partial_cost;
  schedule.items = probe_count;
  pipeline.run(state, schedule);

  if (config.refine_probe) result.probe_field = probe.field().clone();
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace ptycho
