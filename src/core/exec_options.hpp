// ExecOptions: the one struct for every knob that says *how* a solver
// runs rather than *what* it computes — worker threads, checkpoint policy,
// telemetry sinks, progress cadence, the communication transport and the
// numerics tier. The kernel backend is not a knob: CPU detection picks it
// (backend/kernels.hpp).
//
// SerialConfig, GdConfig, HveConfig and ReconstructionRequest all embed
// an ExecOptions as `exec`, so a new execution knob is added in exactly
// one place and flows through the facade untouched (Reconstructor copies
// `request.exec` wholesale instead of field-by-field). Every knob here is
// performance/deployment only: the reconstruction output is bitwise
// identical across all settings (the determinism contract each field's
// comment restates).
//
// parse_exec_options()/exec_options_help() are the shared command-line
// surface: every ptycho_cli subcommand accepts identical spellings
// because they all call the same interpreter over common/options.
#pragma once

#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/options.hpp"
#include "core/precision.hpp"
#include "runtime/transport.hpp"

namespace ptycho {

struct ExecOptions {
  /// Worker threads for the gradient sweep (0 = auto: hardware
  /// concurrency, divided across ranks for the tiled solvers, floored at
  /// 1). Full-batch sweeps use a deterministic ordered reduction, so
  /// output is bitwise identical for any value; SGD sweeps are inherently
  /// sequential and ignore it.
  int threads = 0;
  /// Periodic checkpointing (serial and GD; HVE takes no checkpoints and
  /// ignores it).
  ckpt::Policy checkpoint;
  /// Chrome trace_event JSON sink ("" disables tracing). Honored by the
  /// Reconstructor facade, which owns the obs::Session.
  std::string trace_out;
  /// Metrics-registry snapshot sink, ptycho.metrics.v1 ("" disables).
  std::string metrics_out;
  /// Log a one-line progress report every N iterations (0 disables).
  int progress_every = 0;
  /// Communication substrate for the tiled solvers: in-process threads
  /// (default, the virtual cluster) or one-rank-per-process TCP sockets.
  /// Same messages, same tags, same mailbox matcher — reconstructions are
  /// bitwise identical across transports.
  rt::TransportOptions transport;
  /// Self-healing: on RankFailure, restore the newest valid snapshot from
  /// checkpoint.directory and retry (dropping the failed rank), up to this
  /// many times (0 disables in-run recovery). Requires checkpointing.
  int max_restarts = 0;
  /// Base backoff before a recovery attempt; doubles per restart.
  int restart_backoff_ms = 100;
  /// Numerics tier (--precision). The one exception to the "every knob is
  /// bitwise-neutral" rule above: the default (strict) keeps bitwise
  /// identity with all prior releases, but the fast tier swaps in FMA
  /// kernels and compact storage and is tolerance-gated instead (see
  /// core/precision.hpp). Checkpoints stay f32 and restore across tiers.
  PrecisionPolicy precision;
};

/// Interpret the shared execution flags out of parsed options, over
/// `defaults`:
///   --threads N            --pipeline async (the only mode; sync is an error)
///   --checkpoint-dir PATH  --checkpoint-every N
///   --trace-out PATH       --metrics-out PATH       --progress N
///   --transport inproc|socket  --rank N  --peers host:port,host:port,...
///   --generation N         --connect-timeout-ms N   --drain-timeout-ms N
///   --heartbeat-ms N       --liveness-timeout-ms N  --recv-deadline-ms N
///   --chaos SPEC           --max-restarts N         --restart-backoff-ms N
///   --precision strict|fast
/// Other keys are left for the caller's own flag handling (see
/// exec_option_keys); malformed values throw ptycho::Error.
[[nodiscard]] ExecOptions parse_exec_options(const Options& options,
                                             const ExecOptions& defaults = {});

/// The keys parse_exec_options reads, without the leading "--", for a
/// tool's Options::reject_unknown list.
[[nodiscard]] std::vector<std::string> exec_option_keys();

/// Help text for the shared flags (one line per flag, aligned, indented
/// two spaces) for embedding into a tool's usage message.
[[nodiscard]] std::string exec_options_help();

}  // namespace ptycho
