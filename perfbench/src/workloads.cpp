// The three benchmark workloads. Each is a closed loop: a rank issues
// its next operation only after the previous one completed (blocking
// calls or wait). Every input the program sees — payload bytes,
// compute jitter, link fault/jitter/cross-traffic seeds — is drawn
// from the workload seed, and every delivered payload is checked
// against its seeded expected bytes.
//
// Every SecureConfig uses the boringssl-sim tier, counter nonces and
// the nominal analytic cost model, so virtual time and engine event
// counts are exact functions of the seed while the crypto still runs
// and still verifies.
#include <algorithm>
#include <array>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "emc/common/rng.hpp"
#include "emc/common/timer.hpp"
#include "emc/crypto/provider.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace perfbench {

using namespace emc;

// ------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  std::uint64_t x = seed;
  for (const std::uint64_t v : {a, b, c}) {
    x ^= v + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t max_len)
    : seed_(seed), bytes_(std::max<std::size_t>(64 * 1024, 2 * max_len)) {
  Xoshiro256 rng(mix(seed, 1));
  rng.fill(bytes_);
}

BytesView PayloadPool::window(std::uint64_t key, std::size_t len) const {
  const std::uint64_t span = bytes_.size() - len + 1;
  return {bytes_.data() + mix(seed_, 2, key) % span, len};
}

std::optional<Workload> workload_by_name(std::string_view name) {
  if (name == "small_msg_64r") return Workload::kSmall;
  if (name == "bulk_1MiB_ib") return Workload::kBulk;
  if (name == "lossy_wan_keyring") return Workload::kLossy;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSmall: return "small_msg_64r";
    case Workload::kBulk: return "bulk_1MiB_ib";
    case Workload::kLossy: return "lossy_wan_keyring";
  }
  return "?";
}

namespace {

/// Uniform double in [0, 1) from a mixed hash.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// small_msg_64r: 8 nodes x 8 ranks on 10 GbE.
constexpr int kSmallNodes = 8;
constexpr int kSmallPerNode = 8;
constexpr int kSmallRanks = kSmallNodes * kSmallPerNode;
constexpr int kSmallIters = 16;
constexpr std::size_t kSmallBytes = 64;
constexpr int kBurst = 16;
constexpr std::size_t kA2ABlock = 16;
constexpr int kA2AEvery = 8;
constexpr double kSmallJitter = 2e-6;  ///< max compute between steps, s

// bulk_1MiB_ib: 4 pairs of single-rank nodes on IB QDR.
constexpr int kBulkRanks = 8;
constexpr int kBulkIters = 128;
constexpr std::size_t kBulkBytes = std::size_t{1} << 20;

// lossy_wan_keyring: 4 single-rank nodes in a ring of wan_metro links.
constexpr int kRing = 4;
constexpr int kLossyIters = 4096;
constexpr std::size_t kLossyBytes = 4096;
constexpr double kLossyDrop = 0.05;
constexpr std::uint64_t kSealBudget = 64;  ///< seals per keyring epoch

constexpr int kTagExchange = 100;

/// Seal/open timing of the nominal boringssl-sim tier (Fig. 2 rate).
secure::CryptoCostModel nominal_cost_model() {
  secure::CryptoCostModel m;
  m.seal_per_op = m.open_per_op = 0.3e-6;
  m.seal_per_byte = m.open_per_byte = 1.0 / (2.0 * 1381.0e6);
  return m;
}

secure::SecureConfig base_secure_config() {
  secure::SecureConfig c;
  c.provider = "boringssl-sim";
  c.nonce_mode = secure::NonceMode::kCounter;
  c.cost_model = nominal_cost_model();
  return c;
}

/// Unique key of one message: (src, dst, iteration, slot in the step).
std::uint64_t msg_key(int src, int dst, int iter, int slot) {
  return ((static_cast<std::uint64_t>(src) * 4096 +
           static_cast<std::uint64_t>(dst)) *
              65536 +
          static_cast<std::uint64_t>(iter)) *
             256 +
         static_cast<std::uint64_t>(slot);
}

mpi::WorldConfig world_config(Workload w, std::uint64_t seed) {
  mpi::WorldConfig config;
  switch (w) {
    case Workload::kSmall:
      config.cluster.num_nodes = kSmallNodes;
      config.cluster.ranks_per_node = kSmallPerNode;
      config.cluster.inter = net::ethernet_10g();
      break;
    case Workload::kBulk: {
      config.cluster.num_nodes = kBulkRanks;
      config.cluster.ranks_per_node = 1;
      config.cluster.inter = net::infiniband_qdr_40g();
      // Each partner link carries seeded latency jitter (5% of the
      // wire latency) so the timeline is a function of the seed.
      for (int a = 0; a < kBulkRanks; ++a) {
        net::LinkProfile link;
        link.net = net::infiniband_qdr_40g();
        link.jitter = link.net.latency / 20.0;
        link.seed = mix(seed, 21, static_cast<std::uint64_t>(a));
        config.cluster.links.push_back({a, a ^ 1, link});
      }
      break;
    }
    case Workload::kLossy: {
      config.cluster.num_nodes = kRing;
      config.cluster.ranks_per_node = 1;
      config.recv_timeout = 0.25;
      const net::NetworkProfile metro = net::wan_metro();
      for (int a = 0; a < kRing; ++a) {
        for (const int b : {(a + 1) % kRing, (a + kRing - 1) % kRing}) {
          const auto ua = static_cast<std::uint64_t>(a);
          const auto ub = static_cast<std::uint64_t>(b);
          net::LinkProfile link = net::wan_link(
              metro, kLossyDrop, metro.latency / 20.0, mix(seed, 11, ua, ub));
          link.cross.period = 1e-3;
          link.cross.burst_bytes =
              static_cast<std::size_t>(metro.bandwidth * 2e-4);
          link.cross.seed = mix(seed, 12, ua, ub);
          config.cluster.links.push_back({a, b, link});
        }
      }
      config.reliability.enabled = true;
      config.reliability.transport = reliable::Transport::kAdaptive;
      config.reliability.max_retries = 24;
      config.reliability.seed = mix(seed, 13);
      break;
    }
  }
  return config;
}

/// What one rank reports back to the repetition.
struct RankOut {
  std::uint64_t planned = 0;
  std::uint64_t ok = 0;
  std::uint64_t bytes = 0;
  std::vector<double> steps_us;
  std::vector<std::string> errors;
  secure::CryptoCounters crypto{};
  keys::KeyringCounters keyring{};
  std::uint64_t handshake_attempts = 0;
  std::vector<double> handshake_elapsed;

  /// Counts a delivery of @p got bytes into @p buf as verified when it
  /// is exactly the expected payload.
  void check(BytesView buf, std::size_t got, BytesView want) {
    if (got == want.size() && buf.size() >= got &&
        std::memcmp(buf.data(), want.data(), got) == 0) {
      ++ok;
      bytes += want.size();
    }
  }
};

// ------------------------------------------------------ small_msg_64r

void small_body(mpi::Comm& plain, mpi::Communicator& c, const Inputs& in,
                RankOut& out) {
  const int r = plain.rank();
  const int node = r / kSmallPerNode;
  const int local = r % kSmallPerNode;
  const int up = (r + kSmallPerNode) % kSmallRanks;
  const int down = (r + kSmallRanks - kSmallPerNode) % kSmallRanks;
  const std::array<int, 4> nb = {
      node * kSmallPerNode + (local + 1) % kSmallPerNode,
      node * kSmallPerNode + (local + kSmallPerNode - 1) % kSmallPerNode,
      up, down};
  const auto win = [&](int src, int dst, int it, int slot, std::size_t n) {
    return in.pool.window(msg_key(src, dst, it, slot), n);
  };
  std::array<Bytes, 4> rbuf;
  for (Bytes& b : rbuf) b.resize(kSmallBytes);
  Bytes burst(kSmallBytes);
  Bytes a2a_send(kA2ABlock * kSmallRanks);
  Bytes a2a_recv(kA2ABlock * kSmallRanks);
  for (int it = 0; it < kSmallIters; ++it) {
    // Seeded application compute between steps, attributed as compute
    // when the world is traced.
    const double j0 = plain.now();
    plain.process().advance(
        kSmallJitter * unit(mix(in.seed, 7, static_cast<std::uint64_t>(r),
                                static_cast<std::uint64_t>(it))));
    const double t0 = plain.now();
    if (trace::TraceRecorder* rec = plain.world().trace()) {
      rec->record(r, trace::Category::kCompute, j0, t0);
    }
    // Non-blocking exchange with the intra-node (+-1) and inter-node
    // (+-8) neighbours.
    std::array<mpi::Request, 8> reqs;
    for (std::size_t k = 0; k < nb.size(); ++k) {
      reqs[k] = c.irecv(rbuf[k], nb[k], kTagExchange);
    }
    for (std::size_t k = 0; k < nb.size(); ++k) {
      reqs[4 + k] =
          c.isend(win(r, nb[k], it, 0, kSmallBytes), nb[k], kTagExchange);
    }
    const std::vector<mpi::Status> st = c.waitall(reqs);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      out.check(rbuf[k], st[k].bytes, win(nb[k], r, it, 0, kSmallBytes));
    }
    // Unexpected-queue burst: tags 0..15 up, received in reverse order.
    for (int k = 0; k < kBurst; ++k) {
      c.send(win(r, up, it, 1 + k, kSmallBytes), up, k);
    }
    for (int k = kBurst - 1; k >= 0; --k) {
      const mpi::Status st = c.recv(burst, down, k);
      out.check(burst, st.bytes, win(down, r, it, 1 + k, kSmallBytes));
    }
    if (it % kA2AEvery == kA2AEvery - 1) {
      for (int d = 0; d < kSmallRanks; ++d) {
        const BytesView b = win(r, d, it, 64, kA2ABlock);
        std::copy(b.begin(), b.end(),
                  a2a_send.begin() +
                      static_cast<std::ptrdiff_t>(kA2ABlock) * d);
      }
      c.alltoall(a2a_send, a2a_recv, kA2ABlock);
      for (int s = 0; s < kSmallRanks; ++s) {
        if (s == r) continue;
        out.check(BytesView(a2a_recv).subspan(
                      kA2ABlock * static_cast<std::size_t>(s), kA2ABlock),
                  kA2ABlock, win(s, r, it, 64, kA2ABlock));
      }
    }
    out.steps_us.push_back((plain.now() - t0) * 1e6);
  }
}

std::uint64_t small_planned() {
  const int a2a = kSmallIters / kA2AEvery;
  return static_cast<std::uint64_t>(kSmallIters * (4 + kBurst) +
                                    a2a * (kSmallRanks - 1));
}

// ------------------------------------------------------- bulk_1MiB_ib

/// Virtual send-start time of every bulk message, indexed by
/// [sender][iteration]; the receiver turns it into a one-way latency.
using SendTimes = std::vector<std::array<double, kBulkIters>>;

void bulk_body(mpi::Comm& plain, mpi::Communicator& c, const Inputs& in,
               SendTimes& sent, RankOut& out) {
  const int r = plain.rank();
  const int peer = r ^ 1;
  const bool initiator = (r & 1) == 0;
  Bytes buf(kBulkBytes);
  const auto ur = static_cast<std::size_t>(r);
  const auto up = static_cast<std::size_t>(peer);
  const auto send = [&](int it) {
    sent[ur][static_cast<std::size_t>(it)] = plain.now();
    c.send(in.pool.window(msg_key(r, peer, it, 0), kBulkBytes), peer, it);
  };
  const auto receive = [&](int it) {
    const mpi::Status st = c.recv(buf, peer, it);
    out.check(buf, st.bytes,
              in.pool.window(msg_key(peer, r, it, 0), kBulkBytes));
    out.steps_us.push_back(
        (plain.now() - sent[up][static_cast<std::size_t>(it)]) * 1e6);
  };
  for (int it = 0; it < kBulkIters; ++it) {
    if (initiator) {
      send(it);
      receive(it);
    } else {
      receive(it);
      send(it);
    }
  }
}

secure::SecureConfig bulk_secure_config() {
  secure::SecureConfig c = base_secure_config();
  c.pipeline.enabled = true;
  c.pipeline.chunk_bytes = 64 * 1024;
  c.pipeline.helper_cores = 2;
  return c;
}

// -------------------------------------------------- lossy_wan_keyring

void lossy_body(mpi::Comm& plain, mpi::Communicator& c, const Inputs& in,
                RankOut& out) {
  // Every iteration each rank sends two messages to its right neighbour
  // and one to its left one. The heavier direction spends its per-epoch
  // seal budget first, so the other end of each link follows through
  // catch-up opens; receiving from both sides keeps the ranks in step.
  const int r = plain.rank();
  const int right = (r + 1) % kRing;
  const int left = (r + kRing - 1) % kRing;
  std::array<Bytes, 3> rbuf;
  for (Bytes& b : rbuf) b.resize(kLossyBytes);
  const auto win = [&](int src, int dst, int it, int slot) {
    return in.pool.window(msg_key(src, dst, it, slot), kLossyBytes);
  };
  for (int it = 0; it < kLossyIters; ++it) {
    const double t0 = plain.now();
    std::array<mpi::Request, 6> reqs;
    reqs[0] = c.irecv(rbuf[0], left, 1);
    reqs[1] = c.irecv(rbuf[1], left, 2);
    reqs[2] = c.irecv(rbuf[2], right, 3);
    reqs[3] = c.isend(win(r, right, it, 0), right, 1);
    reqs[4] = c.isend(win(r, right, it, 1), right, 2);
    reqs[5] = c.isend(win(r, left, it, 2), left, 3);
    const std::vector<mpi::Status> st = c.waitall(reqs);
    out.check(rbuf[0], st[0].bytes, win(left, r, it, 0));
    out.check(rbuf[1], st[1].bytes, win(left, r, it, 1));
    out.check(rbuf[2], st[2].bytes, win(right, r, it, 2));
    out.steps_us.push_back((plain.now() - t0) * 1e6);
  }
}

/// Bootstraps this rank's keyring over the lossy links: two handshake
/// rounds, (0,1)(2,3) then (1,2)(3,0), so no rank waits on a peer that
/// is busy with its other neighbour.
std::shared_ptr<keys::LinkKeyring> lossy_keyring(mpi::Comm& plain,
                                                 const Inputs& in,
                                                 RankOut& out) {
  const int r = plain.rank();
  const int right = (r + 1) % kRing;
  const int left = (r + kRing - 1) % kRing;
  auto ring = std::make_shared<keys::LinkKeyring>("boringssl-sim", 32);
  keys::HandshakeConfig hc;
  hc.seed = mix(in.seed, 5);
  hc.backoff_max = 0.1;
  const std::array<int, 2> order = (r % 2 == 0) ? std::array{right, left}
                                                : std::array{left, right};
  for (const int peer : order) {
    keys::HandshakeResult res = keys::link_handshake(plain, peer, in.group, hc);
    ring->install(peer, res.chain, plain.now());
    secure_zero(res.chain);
    out.handshake_attempts += static_cast<std::uint64_t>(res.attempts);
    out.handshake_elapsed.push_back(res.elapsed);
  }
  return ring;
}

}  // namespace

// ------------------------------------------------------------ public

int world_ranks(Workload w) {
  switch (w) {
    case Workload::kSmall: return kSmallRanks;
    case Workload::kBulk: return kBulkRanks;
    case Workload::kLossy: return kRing;
  }
  return 0;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  const crypto::Provider& prov = crypto::provider("boringssl-sim");
  if (!crypto::self_test(prov)) {
    throw std::runtime_error("boringssl-sim provider self-test failed");
  }
  const crypto::AeadKeyPtr group_key = prov.make_key(crypto::demo_key(32));
  std::size_t max_len = kSmallBytes;
  if (w == Workload::kBulk) max_len = kBulkBytes;
  if (w == Workload::kLossy) max_len = kLossyBytes;
  // Every workload bootstraps the same DH test group (a fixed seed, so
  // set-up does the same work for every workload seed); only the lossy
  // workload's handshakes use it.
  return Inputs{w, seed, PayloadPool(seed, max_len),
                crypto::generate_test_group(192, 42)};
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool Rep::same_virtual(const Rep& o) const {
  return makespan == o.makespan && steps_us == o.steps_us &&
         deliveries == o.deliveries && bytes == o.bytes &&
         attempted == o.attempted && failed == o.failed &&
         events == o.events && rel == o.rel &&
         msgs_sealed == o.msgs_sealed && bytes_sealed == o.bytes_sealed &&
         chunks_sealed == o.chunks_sealed &&
         handshake_attempts == o.handshake_attempts &&
         handshake_elapsed == o.handshake_elapsed &&
         ratchets == o.ratchets && catchup_opens == o.catchup_opens;
}

Rep run_rep(const Inputs& in, bool encrypted,
            std::shared_ptr<trace::TraceRecorder> trace) {
  const Workload w = in.workload;
  const int n = world_ranks(w);
  std::vector<RankOut> outs(static_cast<std::size_t>(n));
  SendTimes sent(w == Workload::kBulk ? static_cast<std::size_t>(n) : 0);
  for (RankOut& o : outs) {
    o.planned = w == Workload::kSmall   ? small_planned()
                : w == Workload::kBulk ? kBulkIters
                                       : 3 * kLossyIters;
  }

  const auto body = [&](mpi::Comm& plain) {
    RankOut& out = outs[static_cast<std::size_t>(plain.rank())];
    try {
      if (!encrypted) {
        switch (w) {
          case Workload::kSmall: small_body(plain, plain, in, out); break;
          case Workload::kBulk: bulk_body(plain, plain, in, sent, out); break;
          case Workload::kLossy: lossy_body(plain, plain, in, out); break;
        }
        return;
      }
      secure::SecureConfig cfg = w == Workload::kBulk ? bulk_secure_config()
                                                      : base_secure_config();
      std::shared_ptr<keys::LinkKeyring> ring;
      if (w == Workload::kSmall) cfg.bind_context = true;
      if (w == Workload::kLossy) {
        ring = lossy_keyring(plain, in, out);
        cfg.keyring = ring;
        cfg.nonce_rekey_threshold = kSealBudget;
      }
      secure::SecureComm sc(plain, cfg);
      switch (w) {
        case Workload::kSmall: small_body(plain, sc, in, out); break;
        case Workload::kBulk: bulk_body(plain, sc, in, sent, out); break;
        case Workload::kLossy: lossy_body(plain, sc, in, out); break;
      }
      out.crypto = sc.counters();
      if (ring) out.keyring = ring->counters();
    } catch (const sim::Aborted&) {
      throw;
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("rank ") +
                           std::to_string(plain.rank()) + ": " + e.what());
    }
  };

  Rep rep;
  mpi::WorldConfig config = world_config(w, in.seed);
  config.trace = std::move(trace);
  const double cpu0 = cpu_seconds();
  const WallTimer wall;
  try {
    mpi::World world(config);
    rep.makespan = world.run(body);
    rep.events = world.engine().scheduled_events();
    if (const reliable::Channel* ch = world.reliability()) {
      rep.rel = ch->stats();
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("world: ") + e.what());
  }
  rep.wall_s = wall.seconds();
  rep.cpu_s = cpu_seconds() - cpu0;

  for (RankOut& o : outs) {
    rep.attempted += o.planned;
    rep.deliveries += o.ok;
    rep.bytes += o.bytes;
    rep.failed += o.planned - std::min(o.ok, o.planned);
    rep.steps_us.insert(rep.steps_us.end(), o.steps_us.begin(),
                        o.steps_us.end());
    rep.errors.insert(rep.errors.end(), o.errors.begin(), o.errors.end());
    rep.msgs_sealed += o.crypto.messages_sealed;
    rep.bytes_sealed += o.crypto.bytes_sealed;
    rep.chunks_sealed += o.crypto.chunks_sealed;
    rep.ratchets += o.keyring.ratchets;
    rep.catchup_opens += o.keyring.catchup_opens;
    rep.handshake_attempts += o.handshake_attempts;
    rep.handshake_elapsed.insert(rep.handshake_elapsed.end(),
                                 o.handshake_elapsed.begin(),
                                 o.handshake_elapsed.end());
  }
  return rep;
}

}  // namespace perfbench
