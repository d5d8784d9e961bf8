// The portable scalar backend: the reference operation sequence every
// vector backend must reproduce bit for bit. Compiled with
// -ffp-contract=off (see CMakeLists.txt) so no multiply-add ever fuses,
// on any architecture.
#include "backend/kernels.hpp"
#include "backend/scalar_impl.hpp"

namespace ptycho::backend {

const Kernels& scalar_kernels() {
  static constexpr Kernels table = {
      "scalar",
      &scalar::cmul_lanes,
      &scalar::cmul_conj_lanes,
      &scalar::cmul_conj_acc_lanes,
      &scalar::scale_lanes,
      &scalar::axpy_lanes,
      &scalar::conj_scale_lanes,
      &scalar::butterfly4_block,
      &scalar::butterfly4_lanes,
      &scalar::cmul_rows_tiled,
      &scalar::chirp_mul_lanes,
      &scalar::scale_chirp_lanes,
      &scalar::potential_backprop_lanes,
  };
  return table;
}

}  // namespace ptycho::backend
