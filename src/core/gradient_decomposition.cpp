#include "core/gradient_decomposition.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/log.hpp"
#include "common/memory.hpp"
#include "common/timer.hpp"
#include "core/accbuf.hpp"
#include "core/pipeline.hpp"
#include "partition/assignment.hpp"
#include "runtime/memtrack.hpp"

namespace ptycho {

rt::BreakdownEntry ParallelResult::mean_breakdown() const {
  rt::BreakdownEntry m;
  if (breakdown.empty()) return m;
  for (const auto& e : breakdown) {
    m.compute += e.compute;
    m.wait += e.wait;
    m.comm += e.comm;
  }
  const double n = static_cast<double>(breakdown.size());
  m.compute /= n;
  m.wait /= n;
  m.comm /= n;
  return m;
}

rt::Mesh2D resolve_mesh(const Dataset& dataset, int nranks, int mesh_rows, int mesh_cols) {
  if (mesh_rows > 0 && mesh_cols > 0) {
    PTYCHO_REQUIRE(mesh_rows * mesh_cols == nranks,
                   "mesh_rows*mesh_cols must equal nranks");
    return rt::Mesh2D(mesh_rows, mesh_cols);
  }
  const Rect field = dataset.field();
  const double aspect = static_cast<double>(field.h) / static_cast<double>(field.w);
  return rt::choose_mesh(nranks, aspect);
}

rt::BreakdownEntry breakdown_from(const PhaseProfiler& prof) {
  rt::BreakdownEntry e;
  e.compute = prof.total(phase::kCompute) + prof.total(phase::kUpdate);
  e.wait = prof.total(phase::kWait);
  e.comm = prof.total(phase::kComm);
  return e;
}

Partition make_gd_partition(const Dataset& dataset, const GdConfig& config) {
  PartitionConfig pc;
  pc.mesh = resolve_mesh(dataset, config.nranks, config.mesh_rows, config.mesh_cols);
  pc.strategy = Strategy::kGradientDecomposition;
  return Partition(dataset.scan, pc);
}

void record_cluster_stats(const rt::VirtualCluster& cluster, ParallelResult& result) {
  result.breakdown.clear();
  result.peak_bytes.clear();
  for (int r = 0; r < cluster.nranks(); ++r) {
    result.breakdown.push_back(breakdown_from(cluster.profiler(r)));
    result.peak_bytes.push_back(cluster.is_local(r) ? cluster.mem(r).peak() : 0);
  }
  result.mean_peak_bytes = cluster.mean_peak_bytes();
  result.max_peak_bytes = cluster.max_peak_bytes();
  result.fabric = cluster.fabric_stats();
}

ParallelResult reconstruct_gd(const Dataset& dataset, const GdConfig& config,
                              FramedVolume* initial) {
  PTYCHO_REQUIRE(config.nranks >= 1, "need at least one rank");
  PTYCHO_REQUIRE(config.iterations >= 1, "need at least one iteration");
  PTYCHO_REQUIRE(config.passes_per_iteration >= 1, "passes_per_iteration must be >= 1");
  WallTimer timer;

  const Partition partition = make_gd_partition(dataset, config);
  validate_partition(partition, dataset.scan);
  if (config.sync.appp && config.sync.scheme == PassScheme::kSweep &&
      !all_tiles_own_probes(partition)) {
    log::warn() << "gradient decomposition: some tiles own no probe locations; the sweep "
                   "passes are inexact in this regime — use fewer ranks or sync.appp=false";
  }

  const index_t slices = dataset.spec.slices;
  const int chunks = config.passes_per_iteration;

  // --- restore validation (once, before the ranks spin up) -------------------
  int start_iteration = 0;
  int start_chunk = 0;
  bool exact_resume = false;
  if (config.restore != nullptr) {
    PTYCHO_REQUIRE(initial == nullptr,
                   "cannot combine a checkpoint restore with an initial guess");
    ckpt::check_compatible(*config.restore, dataset);
    const ckpt::Manifest& m = config.restore->manifest;
    ckpt::check_same_solver_flags(m, static_cast<int>(config.mode), config.refine_probe);
    exact_resume =
        ckpt::layout_matches(m, partition) && m.chunks_per_iteration == chunks;
    if (!exact_resume) ckpt::require_iteration_boundary(m);
    start_iteration = m.iteration;
    start_chunk = exact_resume ? m.chunk : 0;
  }

  // Run-constant manifest fields, shared by every snapshot this run takes.
  ckpt::RunInfo run_info;
  if (config.exec.checkpoint.enabled()) {
    run_info.dataset_name = dataset.spec.name;
    run_info.probe_count = dataset.probe_count();
    run_info.slices = slices;
    run_info.chunks_per_iteration = chunks;
    run_info.nranks = partition.nranks();
    run_info.refine_probe = config.refine_probe;
    run_info.update_mode = static_cast<int>(config.mode);
    for (const TileSpec& t : partition.tiles()) {
      run_info.tiles.push_back(ckpt::TileInfo{t.rank, t.owned, t.extended, t.own_probes});
    }
  }

  rt::ClusterSpec cluster_spec;
  cluster_spec.nranks = partition.nranks();
  cluster_spec.transport = config.exec.transport;
  rt::VirtualCluster cluster(cluster_spec);
  cluster.inject_fault(config.fault);
  ParallelResult result;
  if (config.restore != nullptr) result.cost.assign(config.restore->manifest.cost_values);
  std::mutex result_mutex;  // guards result.volume/cost writes

  cluster.run([&](rt::RankContext& ctx) {
    const TileSpec& tile = partition.tile(ctx.rank());
    if (cluster.distributed()) check_output_agreement(ctx, config.output);

    // --- per-rank state (all tracked as this rank's device memory) -------
    // The tile volume and the probe outlive the sweep state: the result
    // placement reads the one, probe_field the other.
    FramedVolume volume(slices, tile.extended);
    Probe local_probe = dataset.probe.clone();
    {
      // This tile's measurements, read in place: each rank reads only its
      // own probe locations' frames (the memory-reduction core claim), and
      // a rank process loads no other frames from disk. They are this
      // rank's memory, so its tracker is charged for them.
      const rt::ChargeScope frames(ctx.mem(), dataset.frame_bytes(tile.own_probes));
      AccumulationBuffer accbuf(slices, tile.extended);

      GradientEngine engine(dataset);
      const real step = config.step * engine.step_scale();
      const double probe_energy = local_probe.total_intensity();
      CArray2D probe_grad_field(local_probe.n(), local_probe.n());
      double restored_partial_cost = 0.0;

      if (config.restore != nullptr) {
        const ckpt::Snapshot& snap = *config.restore;
        if (exact_resume) {
          // Same tiling: this rank's shard restores its state verbatim.
          // (AccBuf stays zeroed: it is zero at every snapshot point.)
          const ckpt::Shard& shard = snap.shards[static_cast<usize>(ctx.rank())];
          copy_region(shard.volume, volume, tile.extended);
          local_probe = Probe(shard.probe.clone());
          if (shard.probe_grad.rows() == probe_grad_field.rows()) {
            probe_grad_field = shard.probe_grad.clone();
          }
          ctx.rng().set_state(shard.rng);
          restored_partial_cost = shard.partial_cost;
        } else {
          // Elastic: re-tile the old owned regions onto this partition,
          // redistributed from the coordinator through the fabric.
          ckpt::scatter_restore(ctx, snap, partition, volume, local_probe.mutable_field());
        }
      } else if (initial != nullptr) {
        copy_region(*initial, volume, tile.extended);
        // A socket rank's warm start is its extended tile alone: spent now.
        // It was loaded before this rank's tracking began, so it is freed
        // untracked too.
        if (cluster.distributed()) {
          const rt::UntrackedScope untracked;
          *initial = FramedVolume{};
        }
      } else {
        volume.data.fill(cplx(1, 0));
      }

      // Per-rank pass graph (identical structure on every rank — the sync
      // and checkpoint passes are collective): sweep -> gradient sync ->
      // update -> checkpoint finalize -> fault point -> mid-iteration
      // checkpoint, then per iteration checkpoint finalize -> probe
      // refinement -> convergence record -> checkpoint.
      // Full-batch sweeps auto-divide the host's cores across ranks so
      // K ranks x T threads ~= hardware; buffers allocate inside this rank's
      // tracked scope.
      const int threads = config.exec.threads != 0
                              ? config.exec.threads
                              : std::max(1, ThreadPool::hardware_threads() / ctx.nranks());
      const RefineSchedule refine{config.refine_probe, config.probe_warmup_iterations};
      ReconstructionPipeline pipeline;
      auto ckpt_pass = std::make_unique<CheckpointPass>(config.exec.checkpoint, run_info);
      pipeline.emplace<SweepPass>(engine, config.mode, threads,
                                  SweepPass::Items{&tile.own_probes}, refine,
                                  config.exec.precision);
      pipeline.emplace<SyncGradientsPass>(partition, ctx.rank(), config.sync, config.mode);
      pipeline.emplace<ApplyUpdatePass>(config.mode, /*apply_in_sgd=*/true);
      // The finalize pass precedes the fault point so a snapshot whose
      // shards completed by chunk N is manifest-complete before a rank loss
      // at chunk N can fire.
      pipeline.emplace<CheckpointFinalizePass>(*ckpt_pass);
      pipeline.emplace<FaultPointPass>();
      pipeline.emplace<ProbeRefinePass>(refine, config.probe_step, dataset.probe_count(),
                                        probe_energy);
      pipeline.emplace<CostRecordPass>(config.record_cost);
      if (config.exec.progress_every > 0) {
        pipeline.emplace<ProgressPass>(config.exec.progress_every, dataset.probe_count(),
                                       config.iterations);
      }
      pipeline.add(std::move(ckpt_pass));

      SolverState state;
      state.volume = &volume;
      state.probe = &local_probe;
      state.accbuf = &accbuf;
      state.probe_grad_field = &probe_grad_field;
      state.step = step;
      state.ctx = &ctx;
      state.cost = &result.cost;
      state.cost_mutex = &result_mutex;

      PipelineSchedule schedule;
      schedule.iterations = config.iterations;
      schedule.chunks_per_iteration = chunks;
      schedule.start_iteration = start_iteration;
      schedule.start_chunk = start_chunk;
      schedule.restored_partial_cost = restored_partial_cost;
      schedule.items = static_cast<index_t>(tile.own_probes.size());
      pipeline.run(state, schedule);
    }
    // The sweep state is freed: return it to the OS before the result
    // is placed.
    release_free_heap();

    place_owned_region(ctx, cluster.distributed(), partition, volume, config.output,
                       result.volume, result.image, result_mutex);
    if (ctx.rank() == 0 && config.refine_probe) {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.probe_field = local_probe.field().clone();
    }
  });

  record_cluster_stats(cluster, result);
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace ptycho
