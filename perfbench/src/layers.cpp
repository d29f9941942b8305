// Layer microbenchmarks: public functions of one module timed in
// isolation, from outside, at the operating point of the workload each
// row calibrates (see perfbench/README.md for the layer map).
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "emc/common/rng.hpp"
#include "emc/common/timer.hpp"
#include "emc/crypto/provider.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/netsim/fabric.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/sim/engine.hpp"

namespace perfbench {

using namespace emc;

double handoff_us_per_event(int procs, double budget_s) {
  // Token ring: each process waits for its turn, advances a short
  // compute slice and hands the token to its successor, so every
  // event is a wake-up of another process.
  const int rounds = std::max(100, 20000 / procs);
  double wall = 0.0;
  std::uint64_t events = 0;
  const WallTimer total;
  do {
    sim::Engine engine(procs);
    std::vector<sim::Waitable> turn_cv(static_cast<std::size_t>(procs));
    int turn = 0;
    const WallTimer t;
    engine.run([&](sim::Process& p) {
      const int me = p.index();
      for (int k = 0; k < rounds; ++k) {
        while (turn != me) p.wait(turn_cv[static_cast<std::size_t>(me)]);
        p.advance(1e-6);
        turn = (me + 1) % procs;
        p.notify_one(turn_cv[static_cast<std::size_t>(turn)]);
      }
    });
    wall += t.seconds();
    events += engine.scheduled_events();
  } while (total.seconds() < budget_s);
  return wall / static_cast<double>(events) * 1e6;
}

double match_ns(bool reverse, double budget_s) {
  // Rank 0 sends a 16-message burst every millisecond; rank 1 wakes
  // half a millisecond later, when the whole burst sits in its
  // unexpected queue, and times the 16 receives.
  constexpr int kBursts = 500;
  constexpr int kDepth = 16;
  constexpr double kPeriod = 1e-3;
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  const Bytes payload(64, 0x5a);
  double timed = 0.0;
  std::uint64_t recvs = 0;
  const WallTimer total;
  do {
    mpi::World world(config);
    world.run([&](mpi::Comm& comm) {
      Bytes buf(payload.size());
      for (int b = 0; b < kBursts; ++b) {
        const double at = kPeriod * (b + (comm.rank() == 0 ? 0.0 : 0.5));
        comm.process().advance(at - comm.now());
        if (comm.rank() == 0) {
          for (int k = 0; k < kDepth; ++k) comm.send(payload, 1, k);
          continue;
        }
        const WallTimer t;
        for (int k = 0; k < kDepth; ++k) {
          (void)comm.recv(buf, 0, reverse ? kDepth - 1 - k : k);
        }
        timed += t.seconds();
        recvs += kDepth;
      }
    });
  } while (total.seconds() < budget_s);
  return timed / static_cast<double>(recvs) * 1e9;
}

double reserve_ns(bool wan, double budget_s) {
  net::ClusterConfig config;
  std::vector<std::pair<int, int>> pairs;
  std::size_t bytes = 64;
  double gap = 1e-6;
  if (wan) {
    // One hostile wan_metro link, as on lossy_wan_keyring.
    config.num_nodes = 2;
    const net::NetworkProfile metro = net::wan_metro();
    net::LinkProfile link =
        net::wan_link(metro, 0.05, metro.latency / 20.0, 17);
    link.cross.period = 1e-3;
    link.cross.burst_bytes = static_cast<std::size_t>(metro.bandwidth * 2e-4);
    link.cross.seed = 29;
    config.links.push_back({0, 1, link});
    pairs.emplace_back(0, 1);
    bytes = 4096;
    gap = 50e-6;
  } else {
    // The 8x8 Ethernet topology of small_msg_64r: seeded rank pairs.
    config.num_nodes = 8;
    config.ranks_per_node = 8;
    Xoshiro256 rng(7);
    for (int i = 0; i < 1024; ++i) {
      const int a = static_cast<int>(rng.next_below(64));
      const int b = static_cast<int>((a + 1 + rng.next_below(63)) % 64);
      pairs.emplace_back(a, b);
    }
  }
  constexpr int kCalls = 200000;
  double timed = 0.0;
  std::uint64_t calls = 0;
  double sink = 0.0;
  const WallTimer total;
  do {
    net::Fabric fabric(config);
    double t = 0.0;
    const WallTimer timer;
    for (int i = 0; i < kCalls; ++i) {
      const auto& [src, dst] =
          pairs[static_cast<std::size_t>(i) % pairs.size()];
      sink += fabric.reserve_path(src, dst, bytes, t).arrival;
      t += gap;
    }
    timed += timer.seconds();
    calls += kCalls;
  } while (total.seconds() < budget_s);
  if (!(sink > 0.0)) {
    throw std::runtime_error("reserve_path returned no arrival");
  }
  return timed / static_cast<double>(calls) * 1e9;
}

namespace {

struct AeadBench {
  crypto::AeadKeyPtr key = crypto::make_aes_gcm("boringssl-sim",
                                                crypto::demo_key(32));
  Bytes nonce = Bytes(crypto::kGcmNonceBytes, 0);
  Bytes pt;
  Bytes ct;
  Bytes back;

  explicit AeadBench(std::size_t n)
      : pt(Xoshiro256(n).bytes(n)), ct(n + crypto::kGcmTagBytes), back(n) {
    key->seal(nonce, {}, pt, ct);
  }
  void seal() { key->seal(nonce, {}, pt, ct); }
  void open() {
    if (!key->open(nonce, {}, ct, back)) {
      throw std::runtime_error("isolated AES-GCM open failed to verify");
    }
  }
};

/// Repeats @p op in batches until @p budget_s elapsed; returns the
/// host seconds per call.
template <typename Op>
double per_call(Op&& op, std::size_t bytes, double budget_s) {
  // About 1 MiB of plaintext between clock reads.
  const std::size_t batch =
      (std::size_t{1} << 20) / std::max<std::size_t>(bytes, 1) + 1;
  std::uint64_t calls = 0;
  const WallTimer t;
  do {
    for (std::size_t i = 0; i < batch; ++i) op();
    calls += batch;
  } while (t.seconds() < budget_s);
  return t.seconds() / static_cast<double>(calls);
}

}  // namespace

double aead_mbps(std::size_t bytes, bool seal, double budget_s) {
  AeadBench b(bytes);
  const double s = seal ? per_call([&] { b.seal(); }, bytes, budget_s)
                        : per_call([&] { b.open(); }, bytes, budget_s);
  return static_cast<double>(bytes) / s / 1e6;
}

double seal_open_us(std::size_t bytes, double budget_s) {
  AeadBench b(bytes);
  return per_call([&] { b.seal(); b.open(); }, bytes, budget_s) * 1e6;
}

double calibration_ms() {
  static std::vector<std::uint64_t> a(std::size_t{1} << 17);
  static std::vector<std::uint64_t> b(a.size());
  const double c0 = cpu_seconds();
  std::uint64_t x = b[0];
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t& v : a) v = x = mix(x, 1);
    std::copy(a.begin(), a.end(), b.begin());
  }
  const double ms = (cpu_seconds() - c0) * 1e3;
  if (b[x % b.size()] == 0) throw std::runtime_error("calibration sink");
  return ms;
}

}  // namespace perfbench
