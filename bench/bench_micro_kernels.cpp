// Kernel micro-benchmarks (google-benchmark): the building blocks whose
// measured costs back the performance model's calibration.
#include <benchmark/benchmark.h>

#include <cmath>

#include "backend/kernels.hpp"
#include "core/gradient_engine.hpp"
#include "data/simulate.hpp"
#include "fft/fft2d.hpp"
#include "runtime/cluster.hpp"
#include "tensor/compact.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  fft::Plan1D plan(n);
  std::vector<cplx> data(n, cplx(1, 0));
  for (auto _ : state) {
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1D)->Arg(64)->Arg(256)->Arg(1024)->Arg(100)->Arg(360);  // pow2 + Bluestein

void BM_Fft2D(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  fft::Fft2D plan(n, n);
  CArray2D field(static_cast<index_t>(n), static_cast<index_t>(n));
  field.fill(cplx(1, 0));
  for (auto _ : state) {
    plan.forward(field.view());
    plan.inverse(field.view());
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2D)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_ProbeGradient(benchmark::State& state) {
  // One probe-location gradient on the tiny dataset: the inner loop of
  // Alg. 1 step 6 and the unit the perf model's flops estimate describes.
  static const Dataset dataset = make_synthetic_dataset(repro_tiny_spec());
  GradientEngine engine(dataset);
  MultisliceWorkspace ws = engine.make_workspace();
  FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  FramedVolume grad(dataset.spec.slices, dataset.field());
  for (auto _ : state) {
    grad.data.fill(cplx{});
    const double f = engine.probe_gradient_joint(0, dataset.probe, dataset.measurements[0].view(),
                                                 volume, grad, ws);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_ProbeGradient);

void BM_RegionAdd(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  FramedVolume a(4, Rect{0, 0, n, n});
  FramedVolume b(4, Rect{n / 2, n / 2, n, n});
  a.data.fill(cplx(1, 1));
  const Rect overlap = intersect(a.frame, b.frame);
  for (auto _ : state) {
    add_region(a, b, overlap);
    benchmark::DoNotOptimize(b.data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(overlap.area() * 4) *
                          static_cast<std::int64_t>(sizeof(cplx)));
}
BENCHMARK(BM_RegionAdd)->Arg(64)->Arg(256);

void BM_PackUnpack(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  FramedVolume src(4, Rect{0, 0, n, n});
  FramedVolume dst(4, Rect{0, 0, n, n});
  const Rect region{0, 0, n, n / 2};
  for (auto _ : state) {
    std::vector<cplx> payload = pack_region(src, region);
    unpack_add_region(payload, dst, region);
    benchmark::DoNotOptimize(dst.data.data());
  }
}
BENCHMARK(BM_PackUnpack)->Arg(64)->Arg(256);

void BM_FabricPingPong(benchmark::State& state) {
  const auto payload_size = static_cast<usize>(state.range(0));
  rt::Fabric fabric(2);
  std::int64_t round = 0;
  for (auto _ : state) {
    fabric.isend(0, 1, rt::make_tag(rt::Phase::kTest, round), std::vector<cplx>(payload_size));
    std::vector<cplx> got = fabric.recv(1, 0, rt::make_tag(rt::Phase::kTest, round));
    benchmark::DoNotOptimize(got.data());
    ++round;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size * sizeof(cplx)));
}
BENCHMARK(BM_FabricPingPong)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SpecimenSynthesis(benchmark::State& state) {
  OpticsGrid grid;
  const auto n = static_cast<index_t>(state.range(0));
  for (auto _ : state) {
    FramedVolume v = make_perovskite_specimen(Rect{0, 0, n, n}, 2, grid);
    benchmark::DoNotOptimize(v.data.data());
  }
}
BENCHMARK(BM_SpecimenSynthesis)->Arg(128);

// ---- backend primitive benchmarks, one registration per kernel table ----
// Calling the tables directly (instead of flipping the global dispatch)
// keeps runs order-independent: BM_Backend*/scalar vs BM_Backend*/avx2
// rows compare the scalar baseline against the vector path side by side.

std::vector<cplx> backend_signal(usize n, int salt) {
  std::vector<cplx> v(n);
  for (usize i = 0; i < n; ++i) {
    v[i] = cplx(static_cast<real>((i + static_cast<usize>(salt)) % 7) - real(3),
                real(0.5) + static_cast<real>(i % 5));
  }
  return v;
}

void BM_BackendCmul(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> a = backend_signal(n, 1);
  const std::vector<cplx> b = backend_signal(n, 2);
  std::vector<cplx> dst(n);
  for (auto _ : state) {
    kern->cmul_lanes(dst.data(), a.data(), b.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendCmulConj(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> a = backend_signal(n, 1);
  const std::vector<cplx> b = backend_signal(n, 2);
  std::vector<cplx> dst(n);
  for (auto _ : state) {
    kern->cmul_conj_lanes(dst.data(), a.data(), b.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendAxpy(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> src = backend_signal(n, 3);
  std::vector<cplx> dst = backend_signal(n, 4);
  const cplx alpha(real(1e-3), real(-2e-3));  // small: dst stays finite
  for (auto _ : state) {
    kern->axpy_lanes(dst.data(), src.data(), alpha, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendButterfly4(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> x0_0 = backend_signal(n, 9);
  const std::vector<cplx> x1_0 = backend_signal(n, 10);
  const std::vector<cplx> x2_0 = backend_signal(n, 11);
  const std::vector<cplx> x3_0 = backend_signal(n, 12);
  // Unit-magnitude twiddles, as in the real transform: growth per
  // application stays bounded by the 4-point sum, so the reset below fires
  // long before float32 overflow.
  const auto unit_twiddles = [n](int salt) {
    std::vector<cplx> tw(n);
    for (usize i = 0; i < n; ++i) {
      const double angle = 0.1 * static_cast<double>(i + static_cast<usize>(salt));
      tw[i] = cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
    }
    return tw;
  };
  const std::vector<cplx> tw1 = unit_twiddles(13);
  const std::vector<cplx> tw2 = unit_twiddles(14);
  const std::vector<cplx> tw3 = unit_twiddles(15);
  std::vector<cplx> x0 = x0_0;
  std::vector<cplx> x1 = x1_0;
  std::vector<cplx> x2 = x2_0;
  std::vector<cplx> x3 = x3_0;
  int applications = 0;
  for (auto _ : state) {
    // Each application grows the signal; reset (untimed) before values can
    // overflow.
    if (++applications >= 50) {
      state.PauseTiming();
      x0 = x0_0;
      x1 = x1_0;
      x2 = x2_0;
      x3 = x3_0;
      applications = 0;
      state.ResumeTiming();
    }
    kern->butterfly4_block(x0.data(), x1.data(), x2.data(), x3.data(), tw1.data(), tw2.data(),
                           tw3.data(), false, n);
    benchmark::DoNotOptimize(x0.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * n * sizeof(cplx)));
}

/// One radix-4 stage (h = 4) of the lane-major FFT over 64 points x
/// n/64 lanes, as the 2-D FFT's column and row passes run it.
void BM_BackendButterfly4Stage(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const usize points = 64;
  const usize lanes = n / points;
  const usize h = 4;
  std::vector<cplx> tw(3 * h);
  for (usize i = 0; i < tw.size(); ++i) {
    const double angle = -0.3 * static_cast<double>(i);
    tw[i] = cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
  }
  const std::vector<cplx> x0 = backend_signal(points * lanes, 16);
  std::vector<cplx> x = x0;
  int applications = 0;
  for (auto _ : state) {
    // Each application can double the amplitude; reset (untimed) before
    // values can overflow.
    if (++applications >= 50) {
      state.PauseTiming();
      x = x0;
      applications = 0;
      state.ResumeTiming();
    }
    kern->butterfly4_stage(x.data(), points, lanes, lanes, h, tw.data(), false);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * points * lanes * sizeof(cplx)));
}

/// The 2-D FFT's scaled transpose into a padded lane layout: a square
/// sqrt(n) x sqrt(n) block, destination stride side + 4, one scale.
void BM_BackendTranspose(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  usize side = 1;
  while ((side + 1) * (side + 1) <= n) ++side;
  const std::vector<cplx> src = backend_signal(side * side, 17);
  std::vector<cplx> dst(side * (side + 4));
  const cplx scale(real(1) / static_cast<real>(side), 0);
  for (auto _ : state) {
    kern->transpose_scale(dst.data(), side + 4, nullptr, src.data(), side, side, side, &scale, 1);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * side * side * sizeof(cplx)));
}

void BM_BackendChirpMul(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> src = backend_signal(n, 7);
  const std::vector<cplx> chirp = backend_signal(n, 8);
  std::vector<cplx> dst(n);
  for (auto _ : state) {
    kern->chirp_mul_lanes(dst.data(), src.data(), chirp.data(), real(0.5), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

/// Registers every backend primitive benchmark for one kernel table.
void register_backend_benches(const backend::Kernels* kern) {
  using Fn = void (*)(benchmark::State&, const backend::Kernels*);
  const std::pair<const char*, Fn> benches[] = {
      {"BM_BackendCmul", &BM_BackendCmul},
      {"BM_BackendCmulConj", &BM_BackendCmulConj},
      {"BM_BackendAxpy", &BM_BackendAxpy},
      {"BM_BackendButterfly4", &BM_BackendButterfly4},
      {"BM_BackendButterfly4Stage", &BM_BackendButterfly4Stage},
      {"BM_BackendTranspose", &BM_BackendTranspose},
      {"BM_BackendChirpMul", &BM_BackendChirpMul},
  };
  for (const auto& [name, fn] : benches) {
    const std::string full = std::string(name) + "/" + kern->name;
    benchmark::RegisterBenchmark(full.c_str(), fn, kern)->Arg(256)->Arg(4096);
  }
}

const int backend_benches_registered = [] {
  register_backend_benches(&backend::scalar_kernels());
  if (backend::simd_available()) register_backend_benches(backend::simd_kernels());
  // Fast-tier tables ride the same harness, so BM_Backend*/avx2 vs
  // BM_Backend*/avx2-fma rows show what the fused-multiply-add column buys
  // per primitive.
  register_backend_benches(&backend::scalar_fma_kernels());
  if (backend::fma_available()) register_backend_benches(backend::fma_kernels());
  return 0;
}();

// ---- fast-tier benchmarks: FMA cmul head-to-head + compact codecs ----

// The fast tier's cmul in one row: the best available FMA table's (vector
// when the CPU has one, scalar-fma otherwise).
void BM_BackendCmulFma(benchmark::State& state) {
  const backend::Kernels* kern =
      backend::fma_available() ? backend::fma_kernels() : &backend::scalar_fma_kernels();
  BM_BackendCmul(state, kern);
}
BENCHMARK(BM_BackendCmulFma)->Arg(256)->Arg(4096);

/// f16 decode throughput: halves -> f32, the per-item cost the fast tier
/// pays to read an encoded measurement frame or a cached transmittance
/// plane.
void BM_CompactDecodeF16(benchmark::State& state) {
  const compact::Format format = compact::Format::kF16;
  const auto n = static_cast<usize>(state.range(0));
  std::vector<real> src(n);
  for (usize i = 0; i < n; ++i) {
    src[i] = real(0.25) + static_cast<real>(i % 977) * real(1e-2);
  }
  std::vector<std::uint16_t> packed(n);
  compact::encode(format, packed.data(), src.data(), n, "the benchmark input");
  std::vector<real> dst(n);
  for (auto _ : state) {
    compact::decode(format, dst.data(), packed.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n * (sizeof(real) + sizeof(std::uint16_t))));
}
BENCHMARK(BM_CompactDecodeF16)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace ptycho

BENCHMARK_MAIN();
