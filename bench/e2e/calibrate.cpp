// bench_calibrate — a fixed amount of 4-thread FFT work, timed.
//
// The shared host this benchmark runs on changes speed by tens of percent
// over minutes, with other tenants' load. run.py runs this program between
// reconstructions and divides the drift out: a reconstruction's scaled
// time is its time x (reference calibration time / calibration time
// measured around it). The work mirrors a GD workload's shape: 4 threads,
// each pushing 64x64 complex fields through 8 slices of multiply, forward
// FFT, kernel product and inverse FFT, with a barrier after every 4
// fields. It links nothing from the repository, so a change to the
// program under test never changes the yardstick.
//
// Prints one line: <wall seconds> <checksum>.
//
//   bench_calibrate
#include <barrier>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>
#include <thread>
#include <utility>
#include <vector>

namespace {

using cf = std::complex<float>;

constexpr int kThreads = 4;
constexpr int kSteps = 25;
constexpr int kFieldsPerStep = 4;
constexpr int kN = 64;
constexpr int kSlices = 8;

// In-place iterative radix-2 transform of n points spaced `stride` apart.
void fft(cf* a, int n, int stride, bool inverse) {
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i * stride], a[j * stride]);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const float angle = 2 * std::numbers::pi_v<float> / static_cast<float>(len) * (inverse ? 1 : -1);
    const cf step(std::cos(angle), std::sin(angle));
    for (int i = 0; i < n; i += len) {
      cf w(1);
      for (int k = 0; k < len / 2; ++k) {
        const cf u = a[(i + k) * stride];
        const cf v = a[(i + k + len / 2) * stride] * w;
        a[(i + k) * stride] = u + v;
        a[(i + k + len / 2) * stride] = u - v;
        w *= step;
      }
    }
  }
}

void fft2(cf* a, bool inverse) {
  for (int r = 0; r < kN; ++r) fft(a + r * kN, kN, 1, inverse);
  for (int c = 0; c < kN; ++c) fft(a + c, kN, kN, inverse);
}

double worker(int rank, std::barrier<>& sync) {
  constexpr int plane = kN * kN;
  std::vector<cf> volume(plane * kSlices), field(plane), kernel(plane);
  for (int i = 0; i < plane * kSlices; ++i) {
    volume[i] = cf(std::cos(static_cast<float>(i) * 0.01f + static_cast<float>(rank)),
                   std::sin(static_cast<float>(i) * 0.02f));
  }
  for (int i = 0; i < plane; ++i) kernel[i] = std::polar(1.0f, static_cast<float>(i) * 0.001f);
  double checksum = 0;
  for (int s = 0; s < kSteps; ++s) {
    for (int f = 0; f < kFieldsPerStep; ++f) {
      for (int i = 0; i < plane; ++i) field[i] = cf(1.0f / static_cast<float>(1 + (i + f) % 7), 0);
      for (int z = 0; z < kSlices; ++z) {
        const cf* slice = volume.data() + z * plane;
        for (int i = 0; i < plane; ++i) field[i] *= slice[i];
        fft2(field.data(), false);
        for (int i = 0; i < plane; ++i) field[i] *= kernel[i] * (1.0f / plane);
        fft2(field.data(), true);
      }
      checksum += std::norm(field[f]);
    }
    sync.arrive_and_wait();
  }
  return checksum;
}

}  // namespace

int main() {
  std::barrier<> sync(kThreads);
  std::vector<double> checksums(kThreads);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { checksums[t] = worker(t, sync); });
  }
  for (auto& t : threads) t.join();
  const double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  double checksum = 0;
  for (const double c : checksums) checksum += c;
  std::printf("%.9f %.6g\n", seconds, checksum);
  return 0;
}
