// The portable scalar backend: the strict policy over the scalar body of
// scalar_impl.hpp, the reference operation sequence every strict vector
// table reproduces bit for bit. Compiled with -ffp-contract=off (see
// CMakeLists.txt) so no multiply-add ever fuses, on any architecture.
#include "backend/kernels.hpp"
#include "backend/scalar_impl.hpp"

namespace ptycho::backend {

const Kernels& scalar_kernels() {
  static constexpr Kernels table = make_table<ScalarKernels<StrictScalar>>("scalar");
  return table;
}

}  // namespace ptycho::backend
