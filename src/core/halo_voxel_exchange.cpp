#include "core/halo_voxel_exchange.hpp"

#include <algorithm>
#include <mutex>

#include "common/memory.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "partition/assignment.hpp"
#include "partition/overlap.hpp"
#include "runtime/memtrack.hpp"

namespace ptycho {

Partition make_hve_partition(const Dataset& dataset, const HveConfig& config) {
  PartitionConfig pc;
  pc.mesh = resolve_mesh(dataset, config.nranks, config.mesh_rows, config.mesh_cols);
  pc.strategy = Strategy::kHaloVoxelExchange;
  pc.hve_extra_rings = config.extra_rings;
  return Partition(dataset.scan, pc);
}

bool hve_feasible(const Dataset& dataset, const HveConfig& config) {
  return make_hve_partition(dataset, config).hve_paste_feasible();
}

ParallelResult reconstruct_hve(const Dataset& dataset, const HveConfig& config,
                               FramedVolume* initial) {
  PTYCHO_REQUIRE(config.nranks >= 1, "need at least one rank");
  PTYCHO_REQUIRE(config.iterations >= 1, "need at least one iteration");
  PTYCHO_REQUIRE(config.local_epochs >= 1, "local_epochs must be >= 1");
  WallTimer timer;

  const Partition partition = make_hve_partition(dataset, config);
  validate_partition(partition, dataset.scan);
  PTYCHO_CHECK(partition.hve_paste_feasible(),
               "Halo Voxel Exchange infeasible: tiles are smaller than their halos "
               "(the paper's 'NA' regime) — use fewer ranks or Gradient Decomposition");

  const index_t slices = dataset.spec.slices;
  const std::vector<PasteEdge> pastes = paste_schedule(partition);

  rt::ClusterSpec cluster_spec;
  cluster_spec.nranks = partition.nranks();
  cluster_spec.transport = config.exec.transport;
  rt::VirtualCluster cluster(cluster_spec);
  ParallelResult result;
  std::mutex result_mutex;

  cluster.run([&](rt::RankContext& ctx) {
    const TileSpec& tile = partition.tile(ctx.rank());
    if (cluster.distributed()) check_output_agreement(ctx, config.output);

    // The tile volume outlives the sweep state for the result placement.
    FramedVolume volume;
    {
      // Assigned probes: own + replicated, all with locally held
      // measurements (the redundancy the paper criticizes), read in place
      // and charged to this rank's tracker.
      std::vector<index_t> probes = tile.own_probes;
      probes.insert(probes.end(), tile.replicated_probes.begin(),
                    tile.replicated_probes.end());
      const rt::ChargeScope frames(ctx.mem(), dataset.frame_bytes(probes));

      volume = FramedVolume(slices, tile.extended);
      if (initial != nullptr) {
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
      GradientEngine engine(dataset);

      // The HVE pass graph: local SGD epochs, synchronous halo pastes, then
      // the per-iteration cost record. Same pipeline as the other solvers —
      // what differs is only which passes are inserted (no gradient sync,
      // no accumulation buffer: updates are immediate and halos are
      // overwritten wholesale).
      const int threads = config.exec.threads != 0
                              ? config.exec.threads
                              : std::max(1, ThreadPool::hardware_threads() / ctx.nranks());
      ReconstructionPipeline pipeline;
      pipeline.emplace<HveLocalSweepPass>(engine, probes, tile.own_probes.size(),
                                          config.local_epochs, config.mode, threads);
      pipeline.emplace<HaloPastePass>(pastes);
      pipeline.emplace<CostRecordPass>(config.record_cost);
      if (config.exec.progress_every > 0) {
        pipeline.emplace<ProgressPass>(config.exec.progress_every, dataset.probe_count(),
                                       config.iterations);
      }

      SolverState state;
      state.volume = &volume;
      state.step = config.step * engine.step_scale();
      state.ctx = &ctx;
      state.cost = &result.cost;
      state.cost_mutex = &result_mutex;

      PipelineSchedule schedule;
      schedule.iterations = config.iterations;
      pipeline.run(state, schedule);
    }
    // The sweep state is freed: return it to the OS before the result
    // is placed.
    release_free_heap();

    place_owned_region(ctx, cluster.distributed(), partition, volume, config.output,
                       result.volume, result.image, result_mutex);
  });

  record_cluster_stats(cluster, result);
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace ptycho
