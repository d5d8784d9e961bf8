#include "core/exec_options.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "runtime/chaos_transport.hpp"

namespace ptycho {

namespace {

std::vector<std::string> split_commas(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One row per shared flag: parse_exec_options reads exactly these keys,
/// and the help text and the known-key list are both generated from here.
struct ExecFlag {
  const char* key;
  const char* arg;
  const char* help;
};

constexpr ExecFlag kExecFlags[] = {
    {"threads", "N", "sweep worker threads (0 = auto)"},
    {"pipeline", "async", "accepted and ignored: async is the only pipeline mode"},
    {"checkpoint-dir", "PATH", "enable periodic checkpointing into PATH"},
    {"checkpoint-every", "N",
     "snapshot cadence in chunks (0 = disabled; pair with --checkpoint-dir)"},
    {"trace-out", "PATH", "write Chrome trace_event JSON of the run"},
    {"metrics-out", "PATH", "write metrics snapshot (ptycho.metrics.v1)"},
    {"progress", "N", "log progress every N iterations (0 = off)"},
    {"transport", "T", "comm substrate: inproc|socket"},
    {"rank", "N", "this process's rank (socket transport)"},
    {"peers", "H:P,H:P,...", "rank roster, one host:port per rank (socket)"},
    {"generation", "N", "cluster incarnation stamp (set by the recovery supervisor)"},
    {"connect-timeout-ms", "N", "socket mesh-formation window (default 30000)"},
    {"drain-timeout-ms", "N", "socket shutdown drain bound (default 5000)"},
    {"heartbeat-ms", "N", "socket liveness ping cadence (0 = off)"},
    {"liveness-timeout-ms", "N", "declare a silent peer dead after N ms (0 = EOF-only)"},
    {"recv-deadline-ms", "N", "abort a blocked receive after N ms (0 = wait forever)"},
    {"chaos", "SPEC", "fault injection, e.g. delay=0.5:2,reorder=0.3,seed=9"},
    {"max-restarts", "N", "auto-recover from rank failures up to N times (0 = off)"},
    {"restart-backoff-ms", "N", "base recovery backoff, doubled per restart (default 100)"},
    {"precision", "P", "numerics tier: strict (bitwise, default) | fast"},
};

}  // namespace

ExecOptions parse_exec_options(const Options& options, const ExecOptions& defaults) {
  ExecOptions exec = defaults;
  exec.threads = static_cast<int>(options.get_int("threads", exec.threads));
  if (options.has("pipeline")) {
    // A one-value spelling kept for old command lines: overlapping
    // checkpoint I/O is how every run executes.
    const std::string mode = options.get_string("pipeline", "");
    if (mode == "sync") {
      throw Error("--pipeline sync was removed: every run overlaps checkpoint I/O "
                  "with later chunks, with the same output");
    }
    if (mode != "async") throw Error("unknown pipeline mode: " + mode + " (expected async)");
  }
  exec.checkpoint.directory = options.get_string("checkpoint-dir", exec.checkpoint.directory);
  exec.checkpoint.every_chunks =
      static_cast<int>(options.get_int("checkpoint-every", exec.checkpoint.every_chunks));
  exec.trace_out = options.get_string("trace-out", exec.trace_out);
  exec.metrics_out = options.get_string("metrics-out", exec.metrics_out);
  exec.progress_every = static_cast<int>(options.get_int("progress", exec.progress_every));
  if (options.has("transport")) {
    exec.transport.kind = rt::transport_kind_from_string(options.get_string("transport", ""));
  }
  exec.transport.rank = static_cast<int>(options.get_int("rank", exec.transport.rank));
  if (options.has("peers")) {
    exec.transport.peers = split_commas(options.get_string("peers", ""));
    // Validate eagerly so a typo'd roster fails at the flag, not mid-mesh.
    for (const auto& spec : exec.transport.peers) (void)rt::parse_peer(spec);
  }
  exec.transport.generation = static_cast<std::uint32_t>(
      options.get_int("generation", static_cast<std::int64_t>(exec.transport.generation)));
  exec.transport.connect_timeout_ms =
      static_cast<int>(options.get_int("connect-timeout-ms", exec.transport.connect_timeout_ms));
  exec.transport.shutdown_drain_ms =
      static_cast<int>(options.get_int("drain-timeout-ms", exec.transport.shutdown_drain_ms));
  exec.transport.heartbeat_ms =
      static_cast<int>(options.get_int("heartbeat-ms", exec.transport.heartbeat_ms));
  exec.transport.liveness_timeout_ms = static_cast<int>(
      options.get_int("liveness-timeout-ms", exec.transport.liveness_timeout_ms));
  exec.transport.recv_deadline_ms =
      static_cast<int>(options.get_int("recv-deadline-ms", exec.transport.recv_deadline_ms));
  if (options.has("chaos")) {
    exec.transport.chaos = options.get_string("chaos", exec.transport.chaos);
    // Validate eagerly: a typo'd spec should fail at the flag.
    (void)rt::parse_chaos_spec(exec.transport.chaos);
  }
  exec.max_restarts = static_cast<int>(options.get_int("max-restarts", exec.max_restarts));
  exec.restart_backoff_ms =
      static_cast<int>(options.get_int("restart-backoff-ms", exec.restart_backoff_ms));
  if (options.has("precision")) {
    exec.precision = parse_precision(options.get_string("precision", ""));
  }
  PTYCHO_REQUIRE(exec.max_restarts >= 0, "--max-restarts must be >= 0");
  PTYCHO_REQUIRE(exec.restart_backoff_ms >= 0, "--restart-backoff-ms must be >= 0");
  if (exec.transport.liveness_timeout_ms > 0 && exec.transport.heartbeat_ms > 0) {
    PTYCHO_REQUIRE(exec.transport.heartbeat_ms < exec.transport.liveness_timeout_ms,
                   "--heartbeat-ms must be below --liveness-timeout-ms, or every peer "
                   "times out between its own pings");
  }
  if (exec.transport.distributed()) {
    PTYCHO_REQUIRE(!exec.transport.peers.empty(),
                   "--transport socket needs --peers host:port,... (one per rank)");
    PTYCHO_REQUIRE(exec.transport.rank >= 0, "--transport socket needs --rank N");
  }
  return exec;
}

std::vector<std::string> exec_option_keys() {
  std::vector<std::string> keys;
  for (const ExecFlag& flag : kExecFlags) keys.emplace_back(flag.key);
  return keys;
}

std::string exec_options_help() {
  std::string help;
  char line[160];
  for (const ExecFlag& flag : kExecFlags) {
    const std::string spelling = std::string("--") + flag.key + " " + flag.arg;
    std::snprintf(line, sizeof line, "  %-23s  %s\n", spelling.c_str(), flag.help);
    help += line;
  }
  return help;
}

}  // namespace ptycho
