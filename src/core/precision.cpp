#include "core/precision.hpp"

#include "common/error.hpp"

namespace ptycho {

PrecisionPolicy parse_precision(std::string_view spec) {
  PrecisionPolicy policy;
  if (spec.empty() || spec == "strict") return policy;
  PTYCHO_REQUIRE(spec == "fast",
                 "--precision must be strict | fast, not '" << spec << "'");
  policy.tier = backend::Precision::kFast;
  // f16's 11-bit mantissa keeps measurement quantization (~5e-4
  // relative) inside the 1e-3 tolerance gate; its range is checked where
  // each array is encoded (compact::encode).
  policy.storage = compact::Format::kF16;
  return policy;
}

void apply_precision(const PrecisionPolicy& policy) {
  backend::set_precision(policy.tier);
}

}  // namespace ptycho
