// Characterization of the sealed-frame path: one deterministic 4-rank
// run (counter nonces, analytic cost model, context binding) drives
// all six collectives, blocking and non-blocking point-to-point, a
// 3-chunk pipelined send and one keyring link, then pins every rank's
// final virtual time, its crypto counters, and the SHA-256 of sealed
// frames as a plain-Comm peer sees them on the wire.
//
// Round-trip tests cannot catch a change that alters the AAD, nonce
// stream or billing consistently on both sides; these pinned values
// can. Any intended change to the wire format or the timelines must
// update them deliberately.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "emc/common/rng.hpp"
#include "emc/crypto/sha256.hpp"
#include "emc/keys/derive.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/world.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::secure {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kChunk = 1024;
constexpr std::size_t kPipelined = 3000;  ///< three chunks: 1024+1024+952

mpi::WorldConfig characterization_world() {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 2;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

SecureConfig characterization_config() {
  SecureConfig c;
  c.nonce_mode = NonceMode::kCounter;
  c.bind_context = true;
  c.cost_model = CryptoCostModel{.seal_per_op = 1.0e-6,
                                 .seal_per_byte = 1.0e-9,
                                 .open_per_op = 1.5e-6,
                                 .open_per_byte = 1.25e-9};
  c.pipeline.enabled = true;
  c.pipeline.chunk_bytes = kChunk;
  c.pipeline.min_bytes = 2 * kChunk;
  c.pipeline.helper_cores = 2;
  return c;
}

Bytes payload(int a, int b, std::size_t size) {
  Xoshiro256 rng(0xC4A2 + static_cast<std::uint64_t>(a) * 131 +
                 static_cast<std::uint64_t>(b));
  return rng.bytes(size);
}

/// Every deterministic CryptoCounters field; seal_seconds/open_seconds
/// are measured host time and are left out. Doubles print as hex
/// floats, so the comparison is exact.
std::string describe(const CryptoCounters& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "sealed=%llu/%llu opened=%llu/%llu auth=%llu len=%llu replay=%llu "
      "dup=%llu nack=%llu recovered=%llu rekeys=%llu ratchets=%llu "
      "grace=%llu catchup=%llu pipelined=%llu chunks=%llu/%llu "
      "helper=%a/%a stall=%a",
      static_cast<unsigned long long>(c.messages_sealed),
      static_cast<unsigned long long>(c.bytes_sealed),
      static_cast<unsigned long long>(c.messages_opened),
      static_cast<unsigned long long>(c.bytes_opened),
      static_cast<unsigned long long>(c.auth_failures),
      static_cast<unsigned long long>(c.length_failures),
      static_cast<unsigned long long>(c.replays_rejected),
      static_cast<unsigned long long>(c.duplicates_suppressed),
      static_cast<unsigned long long>(c.nacks_sent),
      static_cast<unsigned long long>(c.retransmits_recovered),
      static_cast<unsigned long long>(c.rekeys),
      static_cast<unsigned long long>(c.link_ratchets),
      static_cast<unsigned long long>(c.grace_opens),
      static_cast<unsigned long long>(c.catchup_opens),
      static_cast<unsigned long long>(c.messages_pipelined),
      static_cast<unsigned long long>(c.chunks_sealed),
      static_cast<unsigned long long>(c.chunks_opened), c.helper_seal_seconds,
      c.helper_open_seconds, c.pipeline_stall_seconds);
  return buf;
}

std::string sha256_hex(BytesView data) {
  return to_hex(crypto::Sha256::digest(data));
}

struct RankRecord {
  double finish = 0.0;
  std::string group;    ///< counters of the group-key SecureComm
  std::string keyring;  ///< counters of the keyring SecureComm (ranks 0, 1)
  bool delivered = true;
};

/// Collectives over the group key; every rank checks its plaintext.
void run_collectives(SecureComm& sc, RankRecord& rec) {
  const int me = sc.rank();
  const auto n = static_cast<std::size_t>(kRanks);

  Bytes bdata = me == 1 ? payload(1, 100, 100) : Bytes(100);
  sc.bcast(bdata, 1);
  rec.delivered &= bdata == payload(1, 100, 100);

  Bytes all(40 * n);
  sc.allgather(payload(me, 200, 40), all);
  for (int s = 0; s < kRanks; ++s) {
    const Bytes want = payload(s, 200, 40);
    rec.delivered &= std::equal(want.begin(), want.end(),
                                all.begin() + s * 40);
  }

  Bytes a2a_send;
  for (int d = 0; d < kRanks; ++d) {
    const Bytes part = payload(me * 10 + d, 300, 24);
    a2a_send.insert(a2a_send.end(), part.begin(), part.end());
  }
  Bytes a2a_recv(24 * n);
  sc.alltoall(a2a_send, a2a_recv, 24);
  for (int s = 0; s < kRanks; ++s) {
    const Bytes want = payload(s * 10 + me, 300, 24);
    rec.delivered &= std::equal(want.begin(), want.end(),
                                a2a_recv.begin() + s * 24);
  }

  const auto count = [](int s, int d) {
    return static_cast<std::size_t>(8 + 5 * s + 3 * d);
  };
  std::vector<std::size_t> scounts(n), sdispls(n), rcounts(n), rdispls(n);
  Bytes v_send;
  std::size_t recv_total = 0;
  for (int p = 0; p < kRanks; ++p) {
    const auto up = static_cast<std::size_t>(p);
    sdispls[up] = v_send.size();
    scounts[up] = count(me, p);
    const Bytes part = payload(me * 10 + p, 400, scounts[up]);
    v_send.insert(v_send.end(), part.begin(), part.end());
    rcounts[up] = count(p, me);
    rdispls[up] = recv_total;
    recv_total += rcounts[up];
  }
  Bytes v_recv(recv_total);
  sc.alltoallv(v_send, scounts, sdispls, v_recv, rcounts, rdispls);
  for (int p = 0; p < kRanks; ++p) {
    const auto up = static_cast<std::size_t>(p);
    const Bytes want = payload(p * 10 + me, 400, rcounts[up]);
    rec.delivered &=
        std::equal(want.begin(), want.end(),
                   v_recv.begin() + static_cast<std::ptrdiff_t>(rdispls[up]));
  }

  Bytes gathered(me == 2 ? 33 * n : 0);
  sc.gather(payload(me, 500, 33), gathered, 2);
  if (me == 2) {
    for (int s = 0; s < kRanks; ++s) {
      const Bytes want = payload(s, 500, 33);
      rec.delivered &= std::equal(want.begin(), want.end(),
                                  gathered.begin() + s * 33);
    }
  }

  Bytes scatter_all;
  if (me == 3) {
    for (int d = 0; d < kRanks; ++d) {
      const Bytes part = payload(d, 600, 21);
      scatter_all.insert(scatter_all.end(), part.begin(), part.end());
    }
  }
  Bytes mine(21);
  sc.scatter(scatter_all, mine, 3);
  rec.delivered &= mine == payload(me, 600, 21);
}

/// send/recv, isend/irecv and one 3-chunk pipelined message.
void run_point_to_point(SecureComm& sc, RankRecord& rec) {
  const int me = sc.rank();
  if (me == 0) {
    sc.send(payload(0, 700, 500), 1, 7);
    Bytes buf(300);
    mpi::Request r = sc.irecv(buf, 1, 8);
    sc.wait(r);
    rec.delivered &= buf == payload(1, 700, 300);
  } else if (me == 1) {
    Bytes buf(500);
    sc.recv(buf, 0, 7);
    rec.delivered &= buf == payload(0, 700, 500);
    mpi::Request r = sc.isend(payload(1, 700, 300), 0, 8);
    sc.wait(r);
  } else if (me == 2) {
    sc.send(payload(2, 800, kPipelined), 3, 9);
  } else {
    Bytes buf(kPipelined);
    const mpi::Status st = sc.recv(buf, 2, 9);
    rec.delivered &=
        st.bytes == kPipelined && buf == payload(2, 800, kPipelined);
  }
}

/// Sealed frames as a plain-Comm peer receives them: one p2p frame
/// (0 -> 3), the three chunk frames of a pipelined message (1 -> 2),
/// and the gather blocks of ranks 1..3 at a plain root 0.
void capture_frames(mpi::Comm& plain, SecureComm& sc,
                    std::array<std::string, 3>& hashes) {
  const int me = plain.rank();
  if (me == 0) sc.send(payload(0, 900, 64), 3, 10);
  if (me == 3) {
    Bytes wire(SecureComm::wire_size(64));
    plain.recv(wire, 0, 10);
    hashes[0] = sha256_hex(wire);
  }
  if (me == 1) sc.send(payload(1, 900, kPipelined), 2, 11);
  if (me == 2) {
    Bytes frames;
    Bytes wire(kPipeHeaderBytes + SecureComm::wire_size(kChunk));
    for (int k = 0; k < 3; ++k) {
      const mpi::Status st = plain.recv(wire, 1, 11);
      frames.insert(frames.end(), wire.begin(),
                    wire.begin() + static_cast<std::ptrdiff_t>(st.bytes));
    }
    hashes[1] = sha256_hex(frames);
  }
  const std::size_t wire_block = SecureComm::wire_size(16);
  if (me == 0) {
    Bytes own(wire_block);
    Bytes blocks(wire_block * kRanks);
    plain.gather(own, blocks, 0);
    hashes[2] = sha256_hex(BytesView(blocks).subspan(wire_block));
  } else {
    sc.gather(payload(me, 1000, 16), {}, 0);
  }
}

/// One keyring link between ranks 0 and 1 with a 2-seal epoch budget,
/// so the run ratchets and the receiver catches up; the last message
/// is pipelined under the link key.
void run_keyring_link(mpi::Comm& plain, RankRecord& rec) {
  const int me = plain.rank();
  if (me > 1) return;
  const int peer = 1 - me;
  auto ring = std::make_shared<keys::LinkKeyring>("boringssl-sim", 32);
  ring->install(plain.to_world(peer), Bytes(keys::kChainBytes, 0x5c),
                plain.now());
  SecureConfig cfg = characterization_config();
  cfg.keyring = ring;
  cfg.nonce_rekey_threshold = 2;
  SecureComm ksec(plain, cfg);
  if (me == 0) {
    for (int i = 0; i < 3; ++i) ksec.send(payload(0, 1100 + i, 128), 1, 12);
    ksec.send(payload(0, 1200, kPipelined), 1, 13);
    Bytes buf(128);
    ksec.recv(buf, 1, 14);
    rec.delivered &= buf == payload(1, 1300, 128);
  } else {
    Bytes buf(128);
    for (int i = 0; i < 3; ++i) {
      ksec.recv(buf, 0, 12);
      rec.delivered &= buf == payload(0, 1100 + i, 128);
    }
    Bytes big(kPipelined);
    ksec.recv(big, 0, 13);
    rec.delivered &= big == payload(0, 1200, kPipelined);
    ksec.send(payload(1, 1300, 128), 0, 14);
  }
  rec.keyring = describe(ksec.counters());
}

TEST(SealedFrameCharacterization, TimelinesCountersAndWireBytesArePinned) {
  std::array<RankRecord, kRanks> recs;
  std::array<std::string, 3> hashes;
  mpi::run_world(characterization_world(), [&](mpi::Comm& plain) {
    RankRecord& rec = recs[static_cast<std::size_t>(plain.rank())];
    SecureComm sc(plain, characterization_config());
    run_collectives(sc, rec);
    run_point_to_point(sc, rec);
    capture_frames(plain, sc, hashes);
    rec.group = describe(sc.counters());
    run_keyring_link(plain, rec);
    rec.finish = plain.now();
  });

  for (std::size_t r = 0; r < recs.size(); ++r) {
    EXPECT_TRUE(recs[r].delivered) << "rank " << r;
  }
  EXPECT_EQ(recs[0].finish, 0x1.08bee5ce4d24fp-12);
  EXPECT_EQ(recs[1].finish, 0x1.062bc1217822dp-12);
  EXPECT_EQ(recs[2].finish, 0x1.bd3c69888c339p-13);
  EXPECT_EQ(recs[3].finish, 0x1.b7512a4b81228p-13);
  EXPECT_EQ(recs[0].group,
            "sealed=12/783 opened=15/739 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=0 grace=0 catchup=0 pipelined=0 "
            "chunks=0/0 helper=0x0p+0/0x0p+0 stall=0x0p+0");
  EXPECT_EQ(recs[1].group,
            "sealed=16/3655 opened=14/851 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=0 grace=0 catchup=0 pipelined=1 "
            "chunks=3/0 helper=0x1.92a737110e454p-18/0x0p+0 stall=0x0p+0");
  EXPECT_EQ(recs[2].group,
            "sealed=14/3275 opened=18/595 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=0 grace=0 catchup=0 pipelined=1 "
            "chunks=3/0 helper=0x1.92a737110e454p-18/0x0p+0 stall=0x0p+0");
  EXPECT_EQ(recs[3].group,
            "sealed=15/379 opened=17/3475 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=0 grace=0 catchup=0 pipelined=0 "
            "chunks=0/3 helper=0x0p+0/0x1.14d2f5dbb9cfap-17 "
            "stall=0x1.daff1d34a1dp-19");
  EXPECT_EQ(recs[0].keyring,
            "sealed=6/3384 opened=1/128 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=2 grace=0 catchup=0 pipelined=1 "
            "chunks=3/0 helper=0x1.92a737110e454p-18/0x0p+0 stall=0x0p+0");
  EXPECT_EQ(recs[1].keyring,
            "sealed=1/128 opened=6/3384 auth=0 len=0 replay=0 dup=0 nack=0 "
            "recovered=0 rekeys=0 ratchets=0 grace=0 catchup=2 pipelined=0 "
            "chunks=0/3 helper=0x0p+0/0x1.14d2f5dbb9cfap-17 "
            "stall=0x1.146904924ce4p-18");
  EXPECT_EQ(hashes[0],
            "cac84ebb9525ca7882d2235d907f286390519467e15314f1220146ee73dc06ed");
  EXPECT_EQ(hashes[1],
            "e9026b94f94b74af03abb1352e4655b7956d5d91437ad1d520b6798d6f55fd5a");
  EXPECT_EQ(hashes[2],
            "872ec183aed34393552be6bfe79a9ed792cce991a312eb96e62ca3632e8203fe");
}

}  // namespace
}  // namespace emc::secure
