// Documentation-drift gate: the README "Execution flags" table and the
// shared parser's help text (exec_options_help) must list exactly the same
// flags. A flag added to one but not the other fails here, so the two can
// never drift apart again. The README is read in place via the
// PTYCHO_SOURCE_DIR compile definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/exec_options.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Flags from the parser's help text: lines of the form "  --name ...".
std::set<std::string> help_flags() {
  std::set<std::string> flags;
  std::istringstream is(ptycho::exec_options_help());
  std::string line;
  const std::regex flag_re(R"(^\s+(--[a-z0-9-]+)\b)");
  while (std::getline(is, line)) {
    std::smatch m;
    if (std::regex_search(line, m, flag_re)) flags.insert(m[1]);
  }
  return flags;
}

/// Flags from the README table between the exec-flags markers: the first
/// backtick-quoted `--name` of each table row.
std::set<std::string> readme_flags() {
  const std::string readme = read_file(std::string(PTYCHO_SOURCE_DIR) + "/README.md");
  const auto begin = readme.find("<!-- exec-flags-begin -->");
  const auto end = readme.find("<!-- exec-flags-end -->");
  EXPECT_NE(begin, std::string::npos) << "README is missing the exec-flags-begin marker";
  EXPECT_NE(end, std::string::npos) << "README is missing the exec-flags-end marker";
  EXPECT_LT(begin, end);
  std::set<std::string> flags;
  std::istringstream is(readme.substr(begin, end - begin));
  std::string line;
  const std::regex row_re(R"(^\|\s*`(--[a-z0-9-]+))");
  while (std::getline(is, line)) {
    std::smatch m;
    if (std::regex_search(line, m, row_re)) flags.insert(m[1]);
  }
  return flags;
}

std::string join(const std::set<std::string>& s) {
  std::string out;
  for (const auto& f : s) out += (out.empty() ? "" : ", ") + f;
  return out;
}

TEST(FlagsDoc, HelpAndReadmeAgree) {
  const std::set<std::string> help = help_flags();
  const std::set<std::string> readme = readme_flags();
  ASSERT_FALSE(help.empty());
  ASSERT_FALSE(readme.empty());

  std::set<std::string> undocumented;
  std::set_difference(help.begin(), help.end(), readme.begin(), readme.end(),
                      std::inserter(undocumented, undocumented.begin()));
  std::set<std::string> stale;
  std::set_difference(readme.begin(), readme.end(), help.begin(), help.end(),
                      std::inserter(stale, stale.begin()));

  EXPECT_TRUE(undocumented.empty())
      << "flags in exec_options_help() missing from the README table: " << join(undocumented);
  EXPECT_TRUE(stale.empty())
      << "flags in the README table missing from exec_options_help(): " << join(stale);
}

// The flags this PR series depends on documenting must actually be there —
// a marker typo that empties both sets would otherwise pass vacuously.
TEST(FlagsDoc, KnownFlagsPresent) {
  const std::set<std::string> help = help_flags();
  for (const char* flag : {"--precision", "--chaos", "--heartbeat-ms"}) {
    EXPECT_TRUE(help.count(flag)) << flag;
  }
}

}  // namespace
