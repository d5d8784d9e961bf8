// Shared helpers for the experiment harnesses: paper-scale model bundles,
// table formatting, and cached functional datasets.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "core/memory_model.hpp"
#include "data/simulate.hpp"
#include "runtime/perfmodel.hpp"

namespace ptycho::bench {

/// Paper-scale geometry + memory + perf model for one (dataset, gpus,
/// strategy) cell of Tables II/III.
struct ModelCell {
  ScanPattern scan;
  Partition partition;
  MemoryEstimate memory;

  ModelCell(const PaperDataset& dataset, int gpus, Strategy strategy,
            const PaperMemoryConfig& config = {})
      : scan(make_paper_scan(dataset, config.eff_window_px)),
        partition(make_paper_partition(scan, gpus, strategy, config.hve_extra_rings)),
        memory(estimate_paper_memory(partition, dataset, config)) {}

  [[nodiscard]] rt::PerfModel perf(const PaperDataset& dataset,
                                   const rt::MachineModel& machine = {}) const {
    return rt::PerfModel(machine, partition, dataset, memory.per_rank_bytes);
  }
};

/// Fixed-width row printer for paper-style tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> row_labels, int cell_width = 10)
      : labels_(std::move(row_labels)), width_(cell_width) {
    for (const auto& label : labels_) label_width_ = std::max(label_width_, label.size());
  }

  void add_column(const std::vector<std::string>& cells) { columns_.push_back(cells); }

  void print() const {
    for (usize r = 0; r < labels_.size(); ++r) {
      std::printf("%-*s", static_cast<int>(label_width_ + 2), labels_[r].c_str());
      for (const auto& col : columns_) {
        std::printf("%*s", width_, r < col.size() ? col[r].c_str() : "");
      }
      std::printf("\n");
    }
  }

 private:
  std::vector<std::string> labels_;
  std::vector<std::vector<std::string>> columns_;
  usize label_width_ = 0;
  int width_;
};

#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
#endif
// `format` is always a literal at the call sites; the indirection exists
// so callers pick the precision ("%.2f", "%.0f%%", ...).
[[nodiscard]] inline std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

[[nodiscard]] inline std::string fmt_int(long long value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%lld", value);
  return buffer;
}

/// Strong-scaling efficiency vs the first (baseline) entry:
/// eff_P = (T_base * P_base) / (T_P * P).
[[nodiscard]] inline double scaling_efficiency(double t_base, int p_base, double t, int p) {
  return (t_base * static_cast<double>(p_base)) / (t * static_cast<double>(p));
}

/// Functional datasets for the Fig. 8/9 experiments (built once).
[[nodiscard]] inline Dataset build_repro_dataset(const std::string& which, double dose = 0.0) {
  DatasetSpec spec = which == "large"   ? repro_large_spec()
                     : which == "tiny"  ? repro_tiny_spec()
                                        : repro_small_spec();
  AcquisitionParams acq;
  acq.dose_electrons = dose;
  return make_synthetic_dataset(spec, SpecimenParams{}, acq);
}

/// Output directory for CSV/PGM artifacts (next to the binary by default).
[[nodiscard]] inline std::string out_path(const Options& opts, const std::string& name) {
  return opts.get_string("outdir", ".") + "/" + name;
}

}  // namespace ptycho::bench
