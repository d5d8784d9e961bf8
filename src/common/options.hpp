// Tiny command-line option parser for the benches and examples.
//
// Supports `--key value`, `--key=value` and boolean `--flag` forms plus
// typed accessors with defaults. Every key is kept, so a tool can reject
// the ones it does not read (reject_unknown) instead of ignoring a typo.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ptycho {

class Options {
 public:
  Options() = default;

  /// Parse argv; throws ptycho::Error on malformed input.
  static Options parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. --gpus 6,24,54.
  [[nodiscard]] std::vector<long long> get_int_list(const std::string& key,
                                                    const std::vector<long long>& fallback) const;

  /// Keys seen on the command line (for validation / echo).
  [[nodiscard]] const std::map<std::string, std::string>& values() const { return values_; }

  /// Throw ptycho::Error naming the first key (in sorted order) that is not
  /// in `known`, so a misspelled or retired flag fails instead of being
  /// silently ignored.
  void reject_unknown(const std::vector<std::string>& known) const;

  /// Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Set a value programmatically (examples use this to build configs).
  void set(const std::string& key, const std::string& value) { values_[key] = value; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ptycho
