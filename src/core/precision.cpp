#include "core/precision.hpp"

#include "common/error.hpp"

namespace ptycho {

PrecisionPolicy parse_precision(std::string_view spec) {
  PrecisionPolicy policy;
  if (spec.empty() || spec == "strict") return policy;
  PTYCHO_REQUIRE(spec == "fast",
                 "--precision must be strict | fast, not '" << spec << "'");
  policy.tier = backend::Precision::kFast;
  return policy;
}

void apply_precision(const PrecisionPolicy& policy) {
  backend::set_precision(policy.tier);
}

}  // namespace ptycho
