#include "core/pipeline.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "runtime/cluster.hpp"

namespace ptycho {

const char* to_string(Resource resource) {
  switch (resource) {
    case Resource::kVolume: return "volume";
    case Resource::kProbe: return "probe";
    case Resource::kProbeGrad: return "probe-grad";
    case Resource::kAccBuf: return "accbuf";
    case Resource::kCost: return "cost";
    case Resource::kFabric: return "fabric";
    case Resource::kCheckpointDir: return "checkpoint-dir";
  }
  return "?";
}

Pass& ReconstructionPipeline::add(std::unique_ptr<Pass> pass) {
  PTYCHO_REQUIRE(pass != nullptr, "cannot add a null pass");
  passes_.push_back(std::move(pass));
  return *passes_.back();
}

std::string ReconstructionPipeline::describe() const {
  std::string out;
  for (const auto& pass : passes_) {
    if (!out.empty()) out += " -> ";
    out += pass->name();
  }
  return out;
}

void ReconstructionPipeline::validate_background() const {
  // Background hooks must never touch the fabric: collectives are matched
  // by program order (the barrier is tagless), so reordering them off the
  // rank lane would desynchronize ranks. A pass's access sets may vary
  // with the point, but fabric use may not, so probing one canonical point
  // suffices (and is all we can do without a schedule).
  StepPoint probe;
  for (const auto& pass : passes_) {
    if (!pass->background_eligible()) continue;
    const bool fabric = pass->chunk_access(probe).touches(Resource::kFabric) ||
                        pass->iteration_access(0).touches(Resource::kFabric);
    if (fabric) {
      throw Error(std::string("pass '") + pass->name() +
                  "' is background-eligible but declares fabric access");
    }
  }
}

namespace {

/// A background pass still (possibly) running, with the access set it was
/// dispatched under.
struct InFlightPass {
  BackgroundTicket ticket;
  PassAccess access;
  const char* name = "";
};

/// The background lane's fence bookkeeping: before a pass runs anywhere,
/// every in-flight background pass it has a hazard with must complete.
class HazardTracker {
 public:
  void admit(BackgroundTicket ticket, PassAccess access, const char* name) {
    inflight_.push_back(InFlightPass{std::move(ticket), access, name});
  }

  /// Wait for (and retire) every in-flight pass whose access hazards with
  /// `access`. Blocking waits are accounted as kWait so the trace shows
  /// where the rank lane stalled on background I/O.
  void wait_conflicting(const PassAccess& access) {
    for (usize i = 0; i < inflight_.size();) {
      if (!inflight_[i].access.hazard_with(access)) {
        ++i;
        continue;
      }
      wait_one(inflight_[i]);
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void wait_all() {
    for (auto& entry : inflight_) wait_one(entry);
    inflight_.clear();
  }

 private:
  static void wait_one(InFlightPass& entry) {
    if (entry.ticket.done()) {
      entry.ticket.wait();  // rethrow a captured error without accounting
      return;
    }
    obs::SpanScope span("pass-wait", obs::Phase::kWait);
    entry.ticket.wait();
  }

  std::vector<InFlightPass> inflight_;
};

}  // namespace

void ReconstructionPipeline::run(SolverState& state, const PipelineSchedule& schedule) {
  PTYCHO_REQUIRE(!passes_.empty(), "pipeline has no passes");
  PTYCHO_REQUIRE(schedule.chunks_per_iteration >= 1, "need at least one chunk per iteration");
  validate_background();

  // Started on the first background dispatch: a run that never takes a
  // snapshot runs on the rank lane alone.
  std::optional<BackgroundWorker> background;
  HazardTracker inflight;

  // Dispatch one hook (chunk or iteration) on the right lane.
  const auto dispatch = [&](Pass& pass, const PassAccess& access, const StepPoint* point,
                            int iteration) {
    inflight.wait_conflicting(access);
    if (pass.background_eligible() && (access.reads | access.writes) != 0) {
      // Background passes see a value snapshot of the state taken at
      // dispatch (sweep_cost etc. frozen at the right program point);
      // pointed-to buffers are protected by the hazard fences above.
      if (!background) background.emplace();
      BackgroundTicket ticket;
      if (point != nullptr) {
        const StepPoint at = *point;
        ticket = background->submit([&pass, snap = state, at]() mutable {
          obs::SpanScope span(pass.name(), pass.phase(), at.iteration, at.chunk);
          pass.on_chunk(snap, at);
        });
      } else {
        ticket = background->submit([&pass, snap = state, iteration]() mutable {
          obs::SpanScope span(pass.name(), obs::Phase::kNone, iteration);
          pass.on_iteration(snap, iteration);
        });
      }
      inflight.admit(std::move(ticket), access, pass.name());
      return;
    }
    if (point != nullptr) {
      obs::SpanScope span(pass.name(), pass.phase(), point->iteration, point->chunk);
      pass.on_chunk(state, *point);
    } else {
      obs::SpanScope span(pass.name(), obs::Phase::kNone, iteration);
      pass.on_iteration(state, iteration);
    }
  };

  for (int iter = schedule.start_iteration; iter < schedule.iterations; ++iter) {
    // A resumed run re-enters mid-iteration with the sweep cost its
    // snapshot had already accumulated; every later iteration starts at 0.
    state.sweep_cost =
        iter == schedule.start_iteration ? schedule.restored_partial_cost : 0.0;
    const int first_chunk = iter == schedule.start_iteration ? schedule.start_chunk : 0;
    for (int chunk = first_chunk; chunk < schedule.chunks_per_iteration; ++chunk) {
      StepPoint point;
      point.iteration = iter;
      point.chunk = chunk;
      point.chunks = schedule.chunks_per_iteration;
      point.begin = schedule.items * chunk / schedule.chunks_per_iteration;
      point.end = schedule.items * (chunk + 1) / schedule.chunks_per_iteration;
      {
        obs::SpanScope chunk_span("chunk", obs::Phase::kNone, iter, chunk);
        for (const auto& pass : passes_) dispatch(*pass, pass->chunk_access(point), &point, iter);
      }
      // Chunk boundary: fold this rank's span durations into its profiler
      // and move pending trace records out of the bounded rings. (The
      // background thread's ring is registered globally, so drain_all
      // collects its records too.)
      if (state.ctx != nullptr) state.ctx->merge_phases();
      if (obs::tracing_enabled()) obs::Tracer::instance().drain_all();
    }
    {
      // Iteration hooks carry no pass phase: probe refinement and cost
      // recording were never phase-accounted, and the checkpoint pass
      // times its actual writes internally (snapshot-write spans).
      obs::SpanScope iter_span("iteration-hooks", obs::Phase::kNone, iter);
      for (const auto& pass : passes_) dispatch(*pass, pass->iteration_access(iter), nullptr, iter);
    }
    if (state.ctx != nullptr) state.ctx->merge_phases();
    if (obs::tracing_enabled()) obs::Tracer::instance().drain_all();
  }

  // Quiesce the background slot, then give every pass its finish hook —
  // deferred protocols (the last snapshot's manifest) complete here, with
  // no background work in flight on any rank.
  inflight.wait_all();
  for (const auto& pass : passes_) pass->on_finish(state);
  if (state.ctx != nullptr) state.ctx->merge_phases();
  if (obs::tracing_enabled()) obs::Tracer::instance().drain_all();
}

}  // namespace ptycho
