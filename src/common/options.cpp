#include "common/options.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace ptycho {

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    PTYCHO_CHECK(!body.empty(), "bare '--' is not a valid option");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      opts.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is another option or missing,
    // in which case it is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      opts.values_[body] = argv[i + 1];
      ++i;
    } else {
      opts.values_[body] = "true";
    }
  }
  return opts;
}

void Options::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& entry : values_) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      PTYCHO_FAIL("unknown option --" << entry.first);
    }
  }
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get_string(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Options::get_int(const std::string& key, long long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  PTYCHO_CHECK(end != nullptr && *end == '\0', "option --" << key << " expects an integer, got '"
                                                           << it->second << "'");
  return value;
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  PTYCHO_CHECK(end != nullptr && *end == '\0', "option --" << key << " expects a number, got '"
                                                           << it->second << "'");
  return value;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  PTYCHO_CHECK(false, "option --" << key << " expects a boolean, got '" << v << "'");
  return fallback;
}

std::vector<long long> Options::get_int_list(const std::string& key,
                                             const std::vector<long long>& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<long long> out;
  const std::string& text = it->second;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    PTYCHO_CHECK(!token.empty(), "option --" << key << " has an empty list element");
    char* end = nullptr;
    out.push_back(std::strtoll(token.c_str(), &end, 10));
    PTYCHO_CHECK(end != nullptr && *end == '\0',
                 "option --" << key << " expects integers, got '" << token << "'");
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace ptycho
