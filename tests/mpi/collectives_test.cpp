// Every collective verified against a serially computed reference,
// across a sweep of communicator sizes (including non powers of two).
#include <gtest/gtest.h>

#include <limits>

#include "emc/common/rng.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/mpi/reduce.hpp"

namespace emc::mpi {
namespace {

WorldConfig world_of(int ranks) {
  WorldConfig config;
  // Spread across several nodes when the count factors, so collectives
  // mix intra- and inter-node links; odd counts fall back to 1/node.
  if (ranks % 2 == 0 && ranks >= 4) {
    config.cluster.ranks_per_node = 2;
    config.cluster.num_nodes = ranks / 2;
  } else {
    config.cluster.ranks_per_node = 1;
    config.cluster.num_nodes = ranks;
  }
  config.cluster.inter = net::ethernet_10g();
  return config;
}

/// Deterministic per-rank block content.
Bytes rank_block(int rank, std::size_t size, std::uint64_t salt = 0) {
  Xoshiro256 rng(0x1000u + static_cast<std::uint64_t>(rank) * 77 + salt);
  return rng.bytes(size);
}

class CollectiveSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizeTest, BarrierSynchronizes) {
  const int n = GetParam();
  WorldConfig config = world_of(n);
  // Rank r computes for r milliseconds; after the barrier every rank's
  // clock must be at least the slowest rank's compute time.
  run_world(config, [](Comm& comm) {
    comm.process().advance(1e-3 * comm.rank());
    comm.barrier();
    EXPECT_GE(comm.now(), 1e-3 * (comm.size() - 1));
  });
}

TEST_P(CollectiveSizeTest, BcastFromEveryRoot) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      const Bytes expect = rank_block(root, 300);
      Bytes data = comm.rank() == root ? expect : Bytes(300);
      comm.bcast(data, root);
      ASSERT_EQ(data, expect) << "root " << root << " rank " << comm.rank();
    }
  });
}

TEST_P(CollectiveSizeTest, BcastLargePayload) {
  const int n = GetParam();
  run_world(world_of(n), [](Comm& comm) {
    const Bytes expect = rank_block(0, 300'000);  // rendezvous path
    Bytes data = comm.rank() == 0 ? expect : Bytes(expect.size());
    comm.bcast(data, 0);
    ASSERT_EQ(data, expect);
  });
}

TEST_P(CollectiveSizeTest, AllgatherCollectsInRankOrder) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    const std::size_t block = 128;
    const Bytes mine = rank_block(comm.rank(), block);
    Bytes all(block * static_cast<std::size_t>(n));
    comm.allgather(mine, all);
    for (int r = 0; r < n; ++r) {
      const Bytes expect = rank_block(r, block);
      const BytesView got = BytesView(all).subspan(
          static_cast<std::size_t>(r) * block, block);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
          << "rank " << comm.rank() << " block " << r;
    }
  });
}

TEST_P(CollectiveSizeTest, AlltoallPermutesBlocks) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    const std::size_t block = 64;
    // Block destined for rank d from rank s has content f(s, d).
    Bytes sendbuf(block * static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      const Bytes part = rank_block(comm.rank() * 1000 + d, block);
      std::copy(part.begin(), part.end(),
                sendbuf.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(d) * block));
    }
    Bytes recvbuf(sendbuf.size());
    comm.alltoall(sendbuf, recvbuf, block);
    for (int s = 0; s < n; ++s) {
      const Bytes expect = rank_block(s * 1000 + comm.rank(), block);
      const BytesView got = BytesView(recvbuf).subspan(
          static_cast<std::size_t>(s) * block, block);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
          << "from rank " << s;
    }
  });
}

TEST_P(CollectiveSizeTest, AlltoallvWithRaggedSizes) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    const auto un = static_cast<std::size_t>(n);
    const int me = comm.rank();
    // Rank s sends (s + d + 1) * 3 bytes to rank d.
    const auto count_for = [](int s, int d) {
      return static_cast<std::size_t>((s + d + 1) * 3);
    };
    std::vector<std::size_t> sendcounts(un);
    std::vector<std::size_t> senddispls(un);
    std::vector<std::size_t> recvcounts(un);
    std::vector<std::size_t> recvdispls(un);
    std::size_t send_total = 0;
    std::size_t recv_total = 0;
    for (int d = 0; d < n; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      sendcounts[ud] = count_for(me, d);
      senddispls[ud] = send_total;
      send_total += sendcounts[ud];
      recvcounts[ud] = count_for(d, me);
      recvdispls[ud] = recv_total;
      recv_total += recvcounts[ud];
    }
    Bytes sendbuf(send_total);
    for (int d = 0; d < n; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const Bytes part = rank_block(me * 333 + d, sendcounts[ud]);
      std::copy(part.begin(), part.end(),
                sendbuf.begin() + static_cast<std::ptrdiff_t>(senddispls[ud]));
    }
    Bytes recvbuf(recv_total);
    comm.alltoallv(sendbuf, sendcounts, senddispls, recvbuf, recvcounts,
                   recvdispls);
    for (int s = 0; s < n; ++s) {
      const auto us = static_cast<std::size_t>(s);
      const Bytes expect = rank_block(s * 333 + me, recvcounts[us]);
      const BytesView got =
          BytesView(recvbuf).subspan(recvdispls[us], recvcounts[us]);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
          << "from rank " << s;
    }
  });
}

TEST_P(CollectiveSizeTest, GatherAndScatterMirror) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    const std::size_t block = 96;
    const int root = n / 2;
    const Bytes mine = rank_block(comm.rank(), block, /*salt=*/5);
    Bytes gathered(comm.rank() == root
                       ? block * static_cast<std::size_t>(n)
                       : 0);
    comm.gather(mine, gathered, root);
    if (comm.rank() == root) {
      for (int r = 0; r < n; ++r) {
        const Bytes expect = rank_block(r, block, /*salt=*/5);
        ASSERT_TRUE(std::equal(
            expect.begin(), expect.end(),
            gathered.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(r) * block)));
      }
    }
    // Scatter the gathered buffer back; every rank recovers its block.
    Bytes back(block);
    comm.scatter(gathered, back, root);
    EXPECT_EQ(back, mine);
  });
}

TEST_P(CollectiveSizeTest, TypedReduceAndAllreduce) {
  const int n = GetParam();
  run_world(world_of(n), [n](Comm& comm) {
    // Sum of ranks and of squares, vector form.
    const double r = comm.rank();
    const std::vector<double> in = {r, r * r, 1.0};
    std::vector<double> out(3);
    allreduce(comm, std::span<const double>(in), std::span<double>(out),
              std::plus<double>{});
    const double s = n * (n - 1) / 2.0;
    const double sq = (n - 1) * n * (2 * n - 1) / 6.0;
    EXPECT_DOUBLE_EQ(out[0], s);
    EXPECT_DOUBLE_EQ(out[1], sq);
    EXPECT_DOUBLE_EQ(out[2], n);

    EXPECT_DOUBLE_EQ(allreduce_sum(comm, 2.5), 2.5 * n);
    EXPECT_DOUBLE_EQ(allreduce_max(comm, r), static_cast<double>(n - 1));
    EXPECT_EQ(allreduce_max(comm, comm.rank()), n - 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16));

TEST(Collectives, SixtyFourRankBcastAndAlltoall) {
  // The paper's big setting: 64 ranks on 8 nodes.
  WorldConfig config;
  config.cluster.num_nodes = 8;
  config.cluster.ranks_per_node = 8;
  config.cluster.inter = net::infiniband_qdr_40g();
  run_world(config, [](Comm& comm) {
    Bytes data = comm.rank() == 0 ? rank_block(0, 4096) : Bytes(4096);
    comm.bcast(data, 0);
    ASSERT_EQ(data, rank_block(0, 4096));

    const std::size_t block = 256;
    Bytes sendbuf(block * 64, static_cast<std::uint8_t>(comm.rank()));
    Bytes recvbuf(block * 64);
    comm.alltoall(sendbuf, recvbuf, block);
    for (int s = 0; s < 64; ++s) {
      ASSERT_EQ(recvbuf[static_cast<std::size_t>(s) * block],
                static_cast<std::uint8_t>(s));
    }
  });
}

TEST(Collectives, MismatchedBufferSizesThrow) {
  WorldConfig config = world_of(2);
  EXPECT_THROW(run_world(config,
                         [](Comm& comm) {
                           Bytes small(10);
                           Bytes wrong(15);  // needs 20
                           comm.allgather(small, wrong);
                         }),
               MpiError);
  EXPECT_THROW(run_world(config,
                         [](Comm& comm) {
                           Bytes buf(10);
                           comm.bcast(buf, 9);  // bad root
                         }),
               MpiError);
}

TEST(Collectives, AlltoallvRejectsBlocksOutsideTheBuffer) {
  // Every rank passes the same bad layout, so each throws before
  // posting anything; a valid call afterwards still completes.
  run_world(world_of(2), [](Comm& comm) {
    Bytes sendbuf(16, static_cast<std::uint8_t>(comm.rank()));
    Bytes recvbuf(16);
    const std::vector<std::size_t> counts{8, 8};
    const std::vector<std::size_t> displs{0, 8};
    const std::vector<std::size_t> past_end{0, 9};  // 9 + 8 > 16
    // huge + 8 wraps to 6: a naive displs[i] + counts[i] <= size check
    // would accept it.
    const std::vector<std::size_t> wraps{
        0, std::numeric_limits<std::size_t>::max() - 1};
    EXPECT_THROW(
        comm.alltoallv(sendbuf, counts, past_end, recvbuf, counts, displs),
        MpiError);
    EXPECT_THROW(
        comm.alltoallv(sendbuf, counts, displs, recvbuf, counts, past_end),
        MpiError);
    EXPECT_THROW(
        comm.alltoallv(sendbuf, counts, wraps, recvbuf, counts, displs),
        MpiError);
    EXPECT_THROW(
        comm.alltoallv(sendbuf, counts, displs, recvbuf, counts, wraps),
        MpiError);
    comm.alltoallv(sendbuf, counts, displs, recvbuf, counts, displs);
    EXPECT_EQ(recvbuf[0], 0);
    EXPECT_EQ(recvbuf[8], 1);
  });
}

}  // namespace
}  // namespace emc::mpi
