#include "obs/session.hpp"

#include "common/log.hpp"
#include "common/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptycho::obs {

Session::Session(SessionConfig config) : config_(std::move(config)) {
  if (tracing()) {
    Tracer::instance().clear();
    set_tracing_enabled(true);
  }
  if (metrics()) {
    registry().reset();
    set_metrics_enabled(true);
  }
  // Nothing requested: the session is inert and finish() is a no-op.
  finished_ = !tracing() && !metrics();
}

Session::~Session() { finish(); }

void Session::finish() {
  if (finished_) return;
  finished_ = true;
  if (tracing()) {
    set_tracing_enabled(false);
    Tracer& tracer = Tracer::instance();
    const std::uint64_t dropped = tracer.dropped();
    if (dropped > 0) {
      log::warn() << "trace ring overflow: " << dropped
                  << " span(s) dropped (chunks too long between drains)";
    }
    tracer.write_chrome_trace(config_.trace_path);
    log::info() << "trace written to " << config_.trace_path;
  }
  if (metrics()) {
    // How big the process got, answerable from its own metrics file.
    registry().gauge("process_peak_rss_bytes").set(static_cast<double>(process_peak_rss_bytes()));
    set_metrics_enabled(false);
    registry().write_json(config_.metrics_path);
    log::info() << "metrics written to " << config_.metrics_path;
  }
}

}  // namespace ptycho::obs
