// Transport-layer tests: the tag registry, the in-process and socket
// backends behind the fabric, bitwise parity of a GD reconstruction
// across transports (volume, cost history, checkpoint tree), also when
// each socket rank loads only its own frames and warm-start window as the
// CLI does, and fault parity — a killed rank surfaces as RankFailure on
// every rank and checkpoint recovery works identically on both backends.
// The "multi process" socket runs here host each rank on its own thread
// with its own VirtualCluster + SocketTransport over loopback, which
// exercises the full wire path (mesh handshake, frames, progress thread)
// without fork(); the CI release-bench job covers the genuine K-process
// case through `ptycho reconstruct --launch 2`.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/crc32.hpp"
#include "core/gradient_decomposition.hpp"
#include "core/exec_options.hpp"
#include "core/halo_voxel_exchange.hpp"
#include "core/reconstructor.hpp"
#include "data/io.hpp"
#include "runtime/cluster.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;
using testing::tiny_dataset;

// ---- helpers ---------------------------------------------------------------

/// Reserve `n` free loopback ports: bind ephemeral listeners, read the
/// assigned ports back, close them all. The transport's SO_REUSEADDR
/// rebind makes the tiny close-to-rebind window benign.
std::vector<int> reserve_ports(int n) {
  std::vector<int> fds;
  std::vector<int> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)), 0);
    EXPECT_EQ(::listen(fd, 1), 0);
    socklen_t len = sizeof(sa);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
    fds.push_back(fd);
    ports.push_back(static_cast<int>(ntohs(sa.sin_port)));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

rt::TransportOptions socket_options(int rank, const std::vector<int>& ports) {
  rt::TransportOptions t;
  t.kind = rt::TransportKind::kSocket;
  t.rank = rank;
  for (const int p : ports) t.peers.push_back("127.0.0.1:" + std::to_string(p));
  return t;
}

void expect_bitwise_equal(const FramedVolume& a, const FramedVolume& b) {
  ASSERT_EQ(a.slices(), b.slices());
  ASSERT_EQ(a.frame.h, b.frame.h);
  ASSERT_EQ(a.frame.w, b.frame.w);
  int mismatches = 0;
  for (index_t s = 0; s < a.slices(); ++s) {
    for (index_t y = 0; y < a.frame.h; ++y) {
      for (index_t x = 0; x < a.frame.w; ++x) {
        if (std::memcmp(&a.data(s, y, x), &b.data(s, y, x), sizeof(cplx)) != 0) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// Relative path -> file bytes for every regular file under `root`.
std::map<std::string, std::string> tree_contents(const std::string& root) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    out[fs::relative(entry.path(), root).string()] = std::move(bytes);
  }
  return out;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("ptycho_transport_" + name)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Run one job as `nranks` concurrent single-rank processes (threads here)
/// over a loopback socket mesh: `run_rank(transport)` is one process's
/// work. Returns rank 0's result; any rank's exception is collected into
/// `errors[rank]`.
template <class RunRank>
auto run_socket_ranks(int nranks, std::vector<std::exception_ptr>& errors,
                      const RunRank& run_rank) {
  const std::vector<int> ports = reserve_ports(nranks);
  decltype(run_rank(rt::TransportOptions{})) root_result;
  errors.assign(static_cast<usize>(nranks), nullptr);
  std::vector<std::thread> procs;
  for (int r = 0; r < nranks; ++r) {
    procs.emplace_back([&, r] {
      try {
        auto result = run_rank(socket_options(r, ports));
        if (r == 0) root_result = std::move(result);
      } catch (...) {
        errors[static_cast<usize>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : procs) t.join();
  return root_result;
}

/// A GD job as `nranks` socket ranks, each writing its owned rows of the
/// volume into `volume_path`.
ParallelResult run_gd_socket(const Dataset& dataset, const GdConfig& base, int nranks,
                             std::vector<std::exception_ptr>& errors,
                             const std::string& volume_path) {
  return run_socket_ranks(nranks, errors, [&](const rt::TransportOptions& transport) {
    GdConfig config = base;
    config.exec.transport = transport;
    config.output.path = volume_path;
    return reconstruct_gd(dataset, config);
  });
}

/// One rank process as the CLI runs it: read the dataset header, ask
/// local_inputs, then load only those frames (less `skip`, to model a
/// frame missing from this process) and that window of the warm start.
ReconstructionOutcome run_on_local_inputs(const std::string& dataset_path,
                                          const std::string& warm_path,
                                          const ReconstructionRequest& request,
                                          index_t skip = -1) {
  LocalInputs local;
  {
    const Dataset header = io::load_dataset(dataset_path, {});
    local = Reconstructor(header).local_inputs(request);
  }
  std::erase(local.frames, skip);
  const Dataset dataset = io::load_dataset(dataset_path, local.frames);
  return Reconstructor(dataset).run(request, io::load_volume(warm_path, local.window));
}

// ---- tag registry ----------------------------------------------------------

TEST(TagRegistry, PhaseIdsAreUniqueAndNamed) {
  std::set<int> ids;
  for (const rt::Phase phase : rt::kAllPhases) {
    EXPECT_TRUE(ids.insert(static_cast<int>(phase)).second)
        << "duplicate phase id " << static_cast<int>(phase);
    EXPECT_STRNE(to_string(phase), "?") << "unnamed phase " << static_cast<int>(phase);
  }
  static_assert(rt::phases_unique());
}

TEST(TagRegistry, TagsSeparatePhasesAndStages) {
  // Same stage, different phases: disjoint tags.
  EXPECT_NE(rt::make_tag(rt::Phase::kAllreduce, 7), rt::make_tag(rt::Phase::kCost, 7));
  // Same phase, different stages: disjoint tags.
  EXPECT_NE(rt::make_tag(rt::Phase::kTest, 0), rt::make_tag(rt::Phase::kTest, 1));
  // The stage field carries 48 bits without bleeding into the phase bits.
  const std::int64_t big_stage = (std::int64_t(1) << 48) - 1;
  const rt::Tag tag = rt::make_tag(rt::Phase::kTest, big_stage);
  EXPECT_EQ(tag >> 48, static_cast<rt::Tag>(rt::Phase::kTest));
  EXPECT_EQ(tag & big_stage, big_stage);
}

// ---- backend selection ------------------------------------------------------

TEST(Transport, InProcIsTheDefaultBackend) {
  rt::Fabric fabric(3);
  EXPECT_STREQ(fabric.transport_name(), "inproc");
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(fabric.is_local(r));
}

TEST(Transport, KindParsing) {
  EXPECT_EQ(rt::transport_kind_from_string("inproc"), rt::TransportKind::kInProc);
  EXPECT_EQ(rt::transport_kind_from_string("threads"), rt::TransportKind::kInProc);
  EXPECT_EQ(rt::transport_kind_from_string("socket"), rt::TransportKind::kSocket);
  EXPECT_EQ(rt::transport_kind_from_string("tcp"), rt::TransportKind::kSocket);
  EXPECT_THROW((void)rt::transport_kind_from_string("carrier-pigeon"), Error);
}

TEST(Transport, PeerParsing) {
  const rt::PeerAddr addr = rt::parse_peer("example.org:4242");
  EXPECT_EQ(addr.host, "example.org");
  EXPECT_EQ(addr.port, 4242);
  EXPECT_THROW((void)rt::parse_peer("no-port"), Error);
  EXPECT_THROW((void)rt::parse_peer("host:0"), Error);
  EXPECT_THROW((void)rt::parse_peer("host:99999"), Error);
}

TEST(Transport, SocketOptionsAreValidated) {
  rt::TransportOptions opts;
  opts.kind = rt::TransportKind::kSocket;
  opts.peers = {"127.0.0.1:9001", "127.0.0.1:9002"};
  opts.rank = 2;  // outside the roster
  EXPECT_THROW((void)rt::make_transport(opts, 2), Error);
  opts.rank = 0;
  EXPECT_THROW((void)rt::make_transport(opts, 3), Error);  // roster size mismatch
}

// ---- socket wire path -------------------------------------------------------

TEST(SocketTransport, ExchangeBarrierAndStatsAcrossRanks) {
  constexpr int kRanks = 2;
  const std::vector<int> ports = reserve_ports(kRanks);
  std::vector<std::exception_ptr> errors(kRanks);
  std::vector<std::thread> procs;
  for (int r = 0; r < kRanks; ++r) {
    procs.emplace_back([&, r] {
      try {
        rt::ClusterSpec spec;
        spec.nranks = kRanks;
        spec.transport = socket_options(r, ports);
        rt::VirtualCluster cluster(spec);
        EXPECT_TRUE(cluster.distributed());
        EXPECT_EQ(cluster.local_rank(), r);
        EXPECT_STREQ(cluster.fabric().transport_name(), "socket");
        EXPECT_TRUE(cluster.fabric().is_local(r));
        EXPECT_FALSE(cluster.fabric().is_local(1 - r));
        cluster.run([&](rt::RankContext& ctx) {
          EXPECT_EQ(ctx.rank(), r);
          const int peer = 1 - r;
          // Two frames each way (one sized, one empty) plus a barrier,
          // repeated so FIFO-per-tag ordering is exercised on the wire.
          for (int round = 0; round < 5; ++round) {
            ctx.isend(peer, rt::make_tag(rt::Phase::kTest, round),
                      std::vector<cplx>(16, cplx(static_cast<real>(r), round)));
            ctx.isend(peer, rt::make_tag(rt::Phase::kTest, round), {});
            const std::vector<cplx> got = ctx.recv(peer, rt::make_tag(rt::Phase::kTest, round));
            ASSERT_EQ(got.size(), 16u);
            EXPECT_EQ(got[0], cplx(static_cast<real>(peer), round));
            EXPECT_TRUE(ctx.recv(peer, rt::make_tag(rt::Phase::kTest, round)).empty());
            ctx.barrier();
          }
        });
        const rt::TransportStats stats = cluster.fabric().transport_stats();
        EXPECT_GT(stats.messages_out, 0u);
        EXPECT_GT(stats.messages_in, 0u);
        EXPECT_GT(stats.bytes_out, stats.messages_out);  // headers alone beat the count
      } catch (...) {
        errors[static_cast<usize>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : procs) t.join();
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

struct WireHeader {  // mirrors the transport's frame header
  std::uint32_t magic = 0x50545946u;
  std::uint32_t type = 0;  // kHello
  std::int32_t src = 1;
  std::int32_t dst = 0;
  std::int64_t tag = 0;
  std::uint64_t count = 0;
  std::uint32_t generation = 0;
  std::uint32_t checksum = 0;  // CRC32 of the header with this field zeroed
};
static_assert(sizeof(WireHeader) == 40);

/// Connect to rank 0's listener on `port`, retrying while it comes up;
/// returns the socket, or -1 when it never answered.
int connect_impostor(int port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0) return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

TEST(SocketTransport, DeadPeerWithoutShutdownPoisonsTheFabric) {
  // A hand-rolled "rank 1" that completes the mesh handshake and then
  // vanishes without a shutdown frame — the wire-level signature of a
  // killed process. Rank 0's blocked receive must abort with RankFailure
  // (the same teardown FaultPlan recovery catches), not hang.
  const std::vector<int> ports = reserve_ports(2);
  std::thread impostor([&] {
    const int fd = connect_impostor(ports[0]);
    ASSERT_GE(fd, 0) << "never reached rank 0's listener";
    WireHeader hello;
    hello.checksum = crc32(&hello, sizeof(hello));
    ASSERT_EQ(::send(fd, &hello, sizeof(hello), 0), static_cast<ssize_t>(sizeof(hello)));
    // Die abruptly: close with no shutdown frame.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  });

  rt::TransportOptions opts = socket_options(0, ports);
  rt::Fabric fabric(rt::make_transport(opts, 2));
  EXPECT_THROW((void)fabric.recv(0, 1, rt::make_tag(rt::Phase::kTest, 0)), rt::RankFailure);
  EXPECT_TRUE(fabric.poisoned());
  impostor.join();
}

TEST(SocketTransport, ForeignEndianPeerIsRejectedByName) {
  // A "rank 1" of the other byte order: every field of its hello arrives
  // byte-swapped. Mesh formation must fail naming the byte order, not as
  // a generic bad handshake.
  const std::vector<int> ports = reserve_ports(2);
  std::thread impostor([&] {
    const int fd = connect_impostor(ports[0]);
    ASSERT_GE(fd, 0) << "never reached rank 0's listener";
    WireHeader hello;
    hello.magic = __builtin_bswap32(hello.magic);
    hello.src = static_cast<std::int32_t>(__builtin_bswap32(static_cast<std::uint32_t>(hello.src)));
    hello.checksum = __builtin_bswap32(crc32(&hello, sizeof(hello)));
    ASSERT_EQ(::send(fd, &hello, sizeof(hello), 0), static_cast<ssize_t>(sizeof(hello)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  });

  try {
    rt::Fabric fabric(rt::make_transport(socket_options(0, ports), 2));
    ADD_FAILURE() << "mesh formed with a foreign-endian peer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different byte order"), std::string::npos)
        << e.what();
  }
  impostor.join();
}

// ---- the acceptance property: bitwise parity across transports -------------

TEST(SocketTransport, GdRunIsBitwiseIdenticalToInProc) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir inproc_dir("parity_inproc");
  ScratchDir socket_dir("parity_socket");

  GdConfig base;
  base.nranks = 2;
  base.iterations = 3;
  base.passes_per_iteration = 2;

  GdConfig inproc = base;
  inproc.exec.checkpoint = ckpt::Policy{inproc_dir.path(), 1};
  const ParallelResult reference = reconstruct_gd(dataset, inproc);

  GdConfig socket = base;
  socket.exec.checkpoint = ckpt::Policy{socket_dir.path(), 1};
  std::vector<std::exception_ptr> errors;
  const std::string volume_path = socket_dir.path() + "/volume.bin";
  const ParallelResult distributed =
      run_gd_socket(dataset, socket, base.nranks, errors, volume_path);
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Volume, cost history and the whole checkpoint tree: bitwise. No socket
  // rank returns the volume; the ranks wrote it together.
  EXPECT_TRUE(distributed.volume.data.empty());
  expect_bitwise_equal(io::load_volume(volume_path), reference.volume);
  fs::remove(volume_path);
  ASSERT_EQ(distributed.cost.values().size(), reference.cost.values().size());
  for (usize i = 0; i < reference.cost.values().size(); ++i) {
    EXPECT_EQ(distributed.cost.values()[i], reference.cost.values()[i]) << "iteration " << i;
  }
  const auto reference_tree = tree_contents(inproc_dir.path());
  const auto distributed_tree = tree_contents(socket_dir.path());
  ASSERT_FALSE(reference_tree.empty());
  EXPECT_EQ(distributed_tree.size(), reference_tree.size());
  for (const auto& [rel, bytes] : reference_tree) {
    const auto it = distributed_tree.find(rel);
    ASSERT_NE(it, distributed_tree.end()) << "missing " << rel;
    EXPECT_EQ(it->second, bytes) << "checkpoint file differs: " << rel;
  }
}

/// Warm-start `config`'s solver from `shared` in process, then as socket
/// ranks each holding its extended window: a socket rank frees its window
/// once copied, in-process ranks keep reading the one warm start, and every
/// socket rank's tracked peak equals its in-process twin's.
template <class Config, class Solve, class MakePartition>
void expect_warm_start_spent_untracked(const Dataset& dataset, const Config& config,
                                       const Solve& solve, const MakePartition& make_partition) {
  FramedVolume shared(dataset.spec.slices, dataset.field());
  shared.data.fill(cplx(1, 0));
  const ParallelResult inproc = solve(dataset, config, &shared);
  EXPECT_FALSE(shared.data.empty());
  const Partition partition = make_partition(dataset, config);
  const int nranks = partition.nranks();
  std::vector<int> kept(static_cast<usize>(nranks), -1);
  std::vector<usize> peaks(static_cast<usize>(nranks), 0);
  std::vector<std::exception_ptr> errors;
  (void)run_socket_ranks(nranks, errors, [&](const rt::TransportOptions& transport) {
    Config rank_config = config;
    rank_config.exec.transport = transport;
    const Rect window = partition.tile(transport.rank).extended;
    FramedVolume warm(dataset.spec.slices, window);
    copy_region(shared, warm, window);
    ParallelResult result = solve(dataset, rank_config, &warm);
    const auto r = static_cast<usize>(transport.rank);
    kept[r] = warm.data.empty() ? 0 : 1;
    // A socket process tracks only its own rank.
    peaks[r] = result.max_peak_bytes;
    return result;
  });
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  EXPECT_EQ(kept, std::vector<int>(static_cast<usize>(nranks), 0));
  ASSERT_EQ(inproc.peak_bytes.size(), peaks.size());
  for (usize r = 0; r < peaks.size(); ++r) {
    EXPECT_GT(peaks[r], 0u) << "rank " << r;
    EXPECT_EQ(peaks[r], inproc.peak_bytes[r]) << "rank " << r;
  }
}

TEST(SocketTransport, RankFreesItsWarmStartInProcessRanksKeepIt) {
  const Dataset& dataset = tiny_dataset();
  GdConfig gd;
  gd.nranks = 2;
  gd.iterations = 1;
  expect_warm_start_spent_untracked(
      dataset, gd,
      [](const Dataset& d, const GdConfig& c, FramedVolume* warm) {
        return reconstruct_gd(d, c, warm);
      },
      make_gd_partition);
  HveConfig hve;
  hve.nranks = 2;
  hve.iterations = 1;
  expect_warm_start_spent_untracked(
      dataset, hve,
      [](const Dataset& d, const HveConfig& c, FramedVolume* warm) {
        return reconstruct_hve(d, c, warm);
      },
      make_hve_partition);
}

TEST(SocketTransport, RanksGivenDifferentOutputsAllFailNamingIt) {
  // Each socket rank writes its own rows, so ranks not all given the same
  // output would leave a file with holes, or rank 0 waiting for image rows
  // no peer sends. Every rank fails before the sweep instead.
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("disagree");
  const std::string a = dir.path() + "/a.bin";
  const std::string b = dir.path() + "/b.bin";
  struct Case {
    VolumeOutput rank0;
    VolumeOutput rank1;
    std::string named;
  };
  const std::vector<Case> cases = {
      {{a, false}, {"", false}, "same --save-volume"},
      {{a, false}, {b, false}, "same --save-volume"},
      {{a, true}, {a, false}, "given --image"},
  };
  GdConfig config;
  config.nranks = 2;
  config.iterations = 1;
  for (const Case& c : cases) {
    std::vector<std::exception_ptr> errors;
    (void)run_socket_ranks(2, errors, [&](const rt::TransportOptions& transport) {
      GdConfig rank_config = config;
      rank_config.exec.transport = transport;
      rank_config.output = transport.rank == 0 ? c.rank0 : c.rank1;
      return reconstruct_gd(dataset, rank_config);
    });
    for (int r = 0; r < 2; ++r) {
      ASSERT_NE(errors[static_cast<usize>(r)], nullptr) << c.named << ": rank " << r;
      try {
        std::rethrow_exception(errors[static_cast<usize>(r)]);
      } catch (const rt::RankFailure& e) {
        FAIL() << c.named << ": rank " << r << " failed without naming it: " << e.what();
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
            << "rank " << r << ": " << e.what();
      }
    }
    EXPECT_FALSE(fs::exists(a)) << c.named;
    EXPECT_FALSE(fs::exists(b)) << c.named;
  }
}

TEST(SocketTransport, NonFiniteCostFailsEveryRankWithTheNamedError) {
  // Every rank holds the reduced cost, so each fails on its own check at
  // the same iteration: none is left waiting for a peer, and none sees
  // only a RankFailure.
  const testing::AbsorbingWarmStart& start = testing::absorbing_warm_start();
  GdConfig config;
  config.nranks = 2;
  config.iterations = 2;
  config.mode = UpdateMode::kFullBatch;
  std::vector<std::exception_ptr> errors;
  (void)run_socket_ranks(2, errors, [&](const rt::TransportOptions& transport) {
    GdConfig rank_config = config;
    rank_config.exec.transport = transport;
    FramedVolume warm = start.nan.clone();
    return reconstruct_gd(start.dataset, rank_config, &warm);
  });
  for (int r = 0; r < 2; ++r) {
    ASSERT_NE(errors[static_cast<usize>(r)], nullptr) << "rank " << r << " finished";
    try {
      std::rethrow_exception(errors[static_cast<usize>(r)]);
    } catch (const rt::RankFailure& e) {
      FAIL() << "rank " << r << " failed without naming the cost: " << e.what();
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("cost of iteration 1 is"), std::string::npos)
          << "rank " << r << ": " << msg;
      EXPECT_NE(msg.find("nan: the reconstruction diverged"), std::string::npos)
          << "rank " << r << ": " << msg;
    }
  }
}

// ---- tile-local inputs -----------------------------------------------------

/// The tiny dataset and a 1-iteration warm start, saved as the CLI's inputs.
class LocalInputsRun : public ::testing::Test {
 protected:
  void SetUp() override {
    io::save_dataset(data_path(), tiny_dataset());
    ReconstructionRequest warm;
    warm.nranks = 2;
    warm.iterations = 1;
    io::save_volume(warm_path(), Reconstructor(tiny_dataset()).run(warm).volume);
  }
  [[nodiscard]] std::string data_path() const { return dir_.path() + "/data.ptyd"; }
  [[nodiscard]] std::string warm_path() const { return dir_.path() + "/warm.bin"; }

  /// The same request run in-process on the full inputs, and as `nranks`
  /// socket processes on their local inputs; both must agree bitwise.
  void expect_parity(ReconstructionRequest request, const std::string& inproc_ckpt,
                     const std::string& socket_ckpt) {
    if (!inproc_ckpt.empty()) request.exec.checkpoint = ckpt::Policy{inproc_ckpt, 1};
    const Dataset full = io::load_dataset(data_path());
    const ReconstructionOutcome reference =
        Reconstructor(full).run(request, io::load_volume(warm_path()));

    if (!socket_ckpt.empty()) request.exec.checkpoint = ckpt::Policy{socket_ckpt, 1};
    const index_t image_slice = full.spec.slices / 2;
    request.output = VolumeOutput{dir_.path() + "/socket.bin", /*image=*/true};
    std::vector<std::exception_ptr> errors;
    const ReconstructionOutcome distributed =
        run_socket_ranks(request.nranks, errors, [&](const rt::TransportOptions& transport) {
          ReconstructionRequest rank_request = request;
          rank_request.exec.transport = transport;
          return run_on_local_inputs(data_path(), warm_path(), rank_request);
        });
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }

    // The ranks wrote the volume together; rank 0 gathered one slice.
    expect_bitwise_equal(io::load_volume(request.output.path), reference.volume);
    FramedVolume slice(1, reference.volume.frame);
    copy(reference.volume.window(image_slice, slice.frame), slice.window(0, slice.frame));
    expect_bitwise_equal(distributed.image, slice);
    ASSERT_EQ(distributed.cost.values().size(), reference.cost.values().size());
    for (usize i = 0; i < reference.cost.values().size(); ++i) {
      EXPECT_EQ(distributed.cost.values()[i], reference.cost.values()[i]) << "iteration " << i;
    }
  }

  ScratchDir dir_{"local_inputs"};
};

TEST_F(LocalInputsRun, SocketRanksLoadOnlyTheirTile) {
  const Dataset header = io::load_dataset(data_path(), {});
  ReconstructionRequest request;
  request.nranks = 4;
  // In-process and serial runs read every frame and the whole field.
  for (const Method method : {Method::kGradientDecomposition, Method::kSerial}) {
    request.method = method;
    const LocalInputs all = Reconstructor(header).local_inputs(request);
    EXPECT_EQ(all.frames.size(), static_cast<usize>(header.probe_count()));
    EXPECT_EQ(all.window, header.field());
  }
  const std::vector<int> ports = reserve_ports(4);
  for (int r = 0; r < 4; ++r) {
    request.exec.transport = socket_options(r, ports);
    request.method = Method::kGradientDecomposition;
    GdConfig gd;
    gd.nranks = 4;
    const Partition gd_partition = make_gd_partition(header, gd);
    const TileSpec& gd_tile = gd_partition.tile(r);
    const LocalInputs gd_inputs = Reconstructor(header).local_inputs(request);
    EXPECT_EQ(gd_inputs.frames, gd_tile.own_probes) << "rank " << r;
    EXPECT_EQ(gd_inputs.window, gd_tile.extended) << "rank " << r;

    request.method = Method::kHaloVoxelExchange;
    HveConfig hve;
    hve.nranks = 4;
    const Partition hve_partition = make_hve_partition(header, hve);
    const TileSpec& hve_tile = hve_partition.tile(r);
    const LocalInputs hve_inputs = Reconstructor(header).local_inputs(request);
    EXPECT_EQ(hve_inputs.frames.size(),
              hve_tile.own_probes.size() + hve_tile.replicated_probes.size())
        << "rank " << r;
    EXPECT_EQ(hve_inputs.window, hve_tile.extended) << "rank " << r;
  }
}

TEST_F(LocalInputsRun, GdRunIsBitwiseIdenticalToInProc) {
  ScratchDir inproc_dir("local_parity_inproc");
  ScratchDir socket_dir("local_parity_socket");
  ReconstructionRequest request;
  request.nranks = 2;
  request.iterations = 3;
  request.passes_per_iteration = 2;
  expect_parity(request, inproc_dir.path(), socket_dir.path());

  const auto reference_tree = tree_contents(inproc_dir.path());
  const auto distributed_tree = tree_contents(socket_dir.path());
  ASSERT_FALSE(reference_tree.empty());
  EXPECT_EQ(distributed_tree.size(), reference_tree.size());
  for (const auto& [rel, bytes] : reference_tree) {
    const auto it = distributed_tree.find(rel);
    ASSERT_NE(it, distributed_tree.end()) << "missing " << rel;
    EXPECT_EQ(it->second, bytes) << "checkpoint file differs: " << rel;
  }
}

TEST_F(LocalInputsRun, HveRunIsBitwiseIdenticalToInProc) {
  ReconstructionRequest request;
  request.method = Method::kHaloVoxelExchange;
  request.nranks = 2;
  request.iterations = 2;
  expect_parity(request, "", "");
}

TEST_F(LocalInputsRun, RankMissingOneOfItsFramesFailsNamingTheProbe) {
  ReconstructionRequest request;
  request.nranks = 2;
  request.iterations = 2;
  const Dataset header = io::load_dataset(data_path(), {});
  GdConfig gd;
  gd.nranks = 2;
  const index_t missing = make_gd_partition(header, gd).tile(1).own_probes.front();

  std::vector<std::exception_ptr> errors;
  (void)run_socket_ranks(2, errors, [&](const rt::TransportOptions& transport) {
    ReconstructionRequest rank_request = request;
    rank_request.exec.transport = transport;
    return run_on_local_inputs(data_path(), warm_path(), rank_request,
                               transport.rank == 1 ? missing : index_t{-1});
  });
  // Rank 1 names the frame; its poison fails rank 0 instead of leaving it
  // waiting on a peer that is gone.
  ASSERT_NE(errors[1], nullptr);
  try {
    std::rethrow_exception(errors[1]);
  } catch (const rt::RankFailure& e) {
    FAIL() << "rank 1 failed without naming its frame: " << e.what();
  } catch (const Error& e) {
    const std::string expected = "probe " + std::to_string(missing) + " was not loaded";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
  ASSERT_NE(errors[0], nullptr);
  EXPECT_THROW(std::rethrow_exception(errors[0]), rt::RankFailure);
}

TEST_F(LocalInputsRun, InProcRankMissingAFrameRaisesTheNamedErrorNotItsPeers) {
  // One rank fails on the missing frame and poisons the fabric; the run
  // rethrows that root cause, not the RankFailure it raised on its peer.
  GdConfig config;
  config.nranks = 2;
  config.iterations = 1;
  const Dataset header = io::load_dataset(data_path(), {});
  const index_t missing = make_gd_partition(header, config).tile(1).own_probes.front();
  std::vector<index_t> frames(static_cast<usize>(header.probe_count()));
  std::iota(frames.begin(), frames.end(), index_t{0});
  std::erase(frames, missing);
  const Dataset dataset = io::load_dataset(data_path(), frames);
  try {
    (void)reconstruct_gd(dataset, config);
    FAIL() << "ran without the frame of probe " << missing;
  } catch (const rt::RankFailure& e) {
    FAIL() << "the peer's RankFailure hid the root cause: " << e.what();
  } catch (const Error& e) {
    const std::string expected = "probe " + std::to_string(missing) + " was not loaded";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

// ---- fault parity -----------------------------------------------------------

/// The same fault-recovery scenario on either backend: rank 1 dies at
/// step 2 of a checkpointing run — every rank must observe RankFailure —
/// then a restore from the latest snapshot finishes the job and matches
/// the uninterrupted reference trajectory.
void run_fault_parity_scenario(bool socket_backend) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir(socket_backend ? "fault_socket" : "fault_inproc");
  constexpr int kRanks = 2;

  GdConfig base;
  base.nranks = kRanks;
  base.iterations = 4;

  const ParallelResult uninterrupted = reconstruct_gd(dataset, base);

  GdConfig interrupted = base;
  interrupted.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  interrupted.fault = rt::FaultPlan{1, 2};
  if (socket_backend) {
    std::vector<std::exception_ptr> errors;
    (void)run_gd_socket(dataset, interrupted, kRanks, errors, "");
    // *Every* rank dies with RankFailure: the victim from the injected
    // fault, the others from the poison frame it broadcast.
    for (int r = 0; r < kRanks; ++r) {
      ASSERT_NE(errors[static_cast<usize>(r)], nullptr) << "rank " << r << " did not fail";
      EXPECT_THROW(std::rethrow_exception(errors[static_cast<usize>(r)]), rt::RankFailure)
          << "rank " << r;
    }
  } else {
    EXPECT_THROW((void)reconstruct_gd(dataset, interrupted), rt::RankFailure);
  }

  const ckpt::Snapshot snapshot = ckpt::load_latest(dir.path());
  EXPECT_EQ(snapshot.manifest.iteration, 1);

  GdConfig restored = base;
  restored.restore = &snapshot;
  ParallelResult resumed;
  if (socket_backend) {
    std::vector<std::exception_ptr> errors;
    const std::string volume_path = dir.path() + "/volume.bin";
    resumed = run_gd_socket(dataset, restored, kRanks, errors, volume_path);
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }
    resumed.volume = io::load_volume(volume_path);
  } else {
    resumed = reconstruct_gd(dataset, restored);
  }

  // Same tiling, same chunking: the resumed run is the uninterrupted one.
  ASSERT_EQ(resumed.cost.values().size(), uninterrupted.cost.values().size());
  for (usize i = 0; i < resumed.cost.values().size(); ++i) {
    EXPECT_NEAR(resumed.cost.values()[i], uninterrupted.cost.values()[i],
                1e-12 * std::abs(uninterrupted.cost.values()[i]));
  }
  expect_bitwise_equal(resumed.volume, uninterrupted.volume);
}

TEST(TransportFaultParity, InProcKilledRankFailsEveryRankThenRecovers) {
  run_fault_parity_scenario(/*socket_backend=*/false);
}

TEST(TransportFaultParity, SocketKilledRankFailsEveryRankThenRecovers) {
  run_fault_parity_scenario(/*socket_backend=*/true);
}

}  // namespace
}  // namespace ptycho
