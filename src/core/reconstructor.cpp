#include "core/reconstructor.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/precision.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

namespace ptycho {

namespace {
// Post-run roll-up of the facade-level observables shared by both
// decomposed solvers.
void record_parallel_gauges(const ParallelResult& result) {
  if (!obs::metrics_enabled()) return;
  obs::registry().gauge("mem_peak_bytes_max").set(static_cast<double>(result.max_peak_bytes));
  obs::registry().gauge("mem_peak_bytes_mean").set(result.mean_peak_bytes);
  obs::registry().gauge("wall_seconds").set(result.wall_seconds);
}

// The solver configs a request selects; run_once and local_inputs share
// them so the partition a rank process loads for is the one it runs.
GdConfig gd_config(const ReconstructionRequest& request) {
  GdConfig config;
  config.nranks = request.nranks;
  config.iterations = request.iterations;
  config.step = request.step;
  config.passes_per_iteration = request.passes_per_iteration;
  config.exec = request.exec;
  config.mode = request.mode;
  config.sync = request.sync;
  config.refine_probe = request.refine_probe;
  config.record_cost = request.record_cost;
  config.restore = request.restore;
  config.fault = request.fault;
  config.output = request.output;
  return config;
}

HveConfig hve_config(const ReconstructionRequest& request) {
  HveConfig config;
  config.nranks = request.nranks;
  config.iterations = request.iterations;
  config.step = request.step;
  config.local_epochs = request.hve_local_epochs;
  config.mode = request.mode;
  config.exec = request.exec;
  config.extra_rings = request.hve_extra_rings;
  config.record_cost = request.record_cost;
  config.output = request.output;
  return config;
}
}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::kSerial: return "serial";
    case Method::kGradientDecomposition: return "gradient-decomposition";
    case Method::kHaloVoxelExchange: return "halo-voxel-exchange";
  }
  return "?";
}

ReconstructionOutcome Reconstructor::run(const ReconstructionRequest& request,
                                         FramedVolume initial) const {
  // The precision tier re-resolves the kernel tables process-wide; strict
  // (the default) maps onto the same tables the engine used before the
  // knob existed. Besides this call, only `ptycho reconstruct` applies the
  // tier, before it loads the dataset (the probe is synthesized there).
  apply_precision(request.exec.precision);
  // One session for the whole supervised run: recovery counters must
  // accumulate across attempts, not reset with each retry.
  obs::Session session(obs::SessionConfig{request.exec.trace_out, request.exec.metrics_out});
  // Numerics provenance: every trace/metrics artifact this session emits
  // names the tier its numbers were produced under.
  obs::instant(request.exec.precision.fast() ? "precision-fast" : "precision-strict");
  if (obs::metrics_enabled()) {
    obs::registry().gauge("ptycho.precision").set(request.exec.precision.fast() ? 1.0 : 0.0);
  }

  // Supervised retry loop (in-process clusters only: a distributed rank
  // cannot re-form the mesh from inside — its launch parent respawns it).
  const bool recoverable = request.exec.max_restarts > 0 &&
                           request.exec.checkpoint.enabled() &&
                           !request.exec.transport.distributed() &&
                           request.method != Method::kHaloVoxelExchange;
  ReconstructionRequest attempt = request;
  ckpt::Snapshot recovered;  // owns the restored state attempt.restore points at
  int restarts = 0;
  for (;;) {
    try {
      // The caller's warm start applies until a snapshot supersedes it.
      // Only a socket rank frees it, and a socket rank never retries.
      const bool warm = !initial.data.empty() && attempt.restore == request.restore;
      ReconstructionOutcome outcome = run_once(attempt, warm ? &initial : nullptr);
      if (obs::metrics_enabled() && restarts > 0) {
        obs::registry().gauge("runtime.recovery.generation").set(
            static_cast<double>(attempt.exec.transport.generation));
      }
      session.finish();
      return outcome;
    } catch (const rt::RankFailure& failure) {
      if (obs::metrics_enabled()) {
        obs::registry().counter("runtime.recovery.rank_failures_total").add(1);
      }
      if (!recoverable || restarts >= attempt.exec.max_restarts) {
        session.finish();
        throw;
      }
      WallTimer latency;
      log::warn() << "rank failure (" << failure.what() << ") — recovery attempt "
                  << (restarts + 1) << "/" << attempt.exec.max_restarts;
      if (attempt.fault.armed()) {
        // The injected fault consumed a rank: the survivors re-form one
        // smaller, and the (one-shot) fault must not re-fire after restore
        // — resumed step counters start past at_step and would re-kill the
        // run forever.
        attempt.nranks = std::max(1, attempt.nranks - 1);
        attempt.fault = rt::FaultPlan{};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(attempt.exec.restart_backoff_ms) << restarts));
      // New cluster incarnation: chaos one-shots stay spent, and (on
      // sockets) stale frames from the dead generation are rejected.
      attempt.exec.transport.generation += 1;
      ckpt::RestoreFilter filter;
      filter.nranks = attempt.method == Method::kSerial ? 1 : attempt.nranks;
      filter.chunks_per_iteration = attempt.passes_per_iteration;
      filter.update_mode = static_cast<int>(attempt.mode);
      filter.refine_probe = attempt.refine_probe ? 1 : 0;
      auto snapshot = ckpt::load_newest_valid(attempt.exec.checkpoint.directory, filter);
      if (snapshot.has_value()) {
        recovered = std::move(*snapshot);
        attempt.restore = &recovered;
        log::info() << "recovering from snapshot at iteration "
                    << recovered.manifest.iteration << " (chunk " << recovered.manifest.chunk
                    << ", " << recovered.manifest.nranks << " ranks) at "
                    << attempt.nranks << " ranks";
      } else {
        attempt.restore = request.restore;  // nothing usable: restart cold
        log::warn() << "no usable snapshot found — restarting from scratch";
      }
      restarts += 1;
      if (obs::metrics_enabled()) {
        obs::registry().counter("runtime.recovery.restarts_total").add(1);
        obs::registry().histogram("runtime.recovery.latency_seconds").observe(latency.seconds());
      }
    }
  }
}

LocalInputs Reconstructor::local_inputs(const ReconstructionRequest& request) const {
  const rt::TransportOptions& transport = request.exec.transport;
  if (request.method == Method::kSerial || !transport.distributed()) {
    LocalInputs inputs;
    inputs.frames.resize(static_cast<usize>(dataset_.probe_count()));
    std::iota(inputs.frames.begin(), inputs.frames.end(), index_t{0});
    inputs.window = dataset_.field();
    return inputs;
  }
  const bool hve = request.method == Method::kHaloVoxelExchange;
  const Partition partition = hve ? make_hve_partition(dataset_, hve_config(request))
                                  : make_gd_partition(dataset_, gd_config(request));
  const TileSpec& tile = partition.tile(transport.rank);
  LocalInputs inputs{tile.own_probes, tile.extended};
  if (hve) {
    inputs.frames.insert(inputs.frames.end(), tile.replicated_probes.begin(),
                         tile.replicated_probes.end());
  }
  return inputs;
}

ReconstructionOutcome Reconstructor::run_once(const ReconstructionRequest& request,
                                              FramedVolume* initial) const {
  ReconstructionOutcome outcome;
  switch (request.method) {
    case Method::kSerial: {
      SerialConfig config;
      config.iterations = request.iterations;
      config.step = request.step;
      config.chunks_per_iteration = request.passes_per_iteration;
      config.exec = request.exec;
      config.mode = request.mode;
      config.refine_probe = request.refine_probe;
      config.record_cost = request.record_cost;
      config.restore = request.restore;
      SerialResult result = reconstruct_serial(dataset_, config, initial);
      outcome.volume = std::move(result.volume);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      if (obs::metrics_enabled()) {
        obs::registry().gauge("wall_seconds").set(result.wall_seconds);
      }
      return outcome;
    }
    case Method::kGradientDecomposition: {
      ParallelResult result = reconstruct_gd(dataset_, gd_config(request), initial);
      outcome.volume = std::move(result.volume);
      outcome.image = std::move(result.image);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      outcome.mean_peak_bytes = result.mean_peak_bytes;
      outcome.breakdown = std::move(result.breakdown);
      record_parallel_gauges(result);
      return outcome;
    }
    case Method::kHaloVoxelExchange: {
      PTYCHO_REQUIRE(!request.exec.checkpoint.enabled() && request.restore == nullptr,
                     "checkpoint/restore is not supported for the HVE solver");
      ParallelResult result = reconstruct_hve(dataset_, hve_config(request), initial);
      outcome.volume = std::move(result.volume);
      outcome.image = std::move(result.image);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      outcome.mean_peak_bytes = result.mean_peak_bytes;
      outcome.breakdown = std::move(result.breakdown);
      record_parallel_gauges(result);
      return outcome;
    }
  }
  PTYCHO_UNREACHABLE("unknown method");
}

}  // namespace ptycho
