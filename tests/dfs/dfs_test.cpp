#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread_pool.hpp"
#include "both_policies.hpp"

namespace mri::dfs {
namespace {

// Round trips run under both codecs: copies serve the stored payload,
// stripes reassemble it from their data cells.
class DfsRoundTrip : public ::testing::TestWithParam<StoragePolicy> {};

TEST_P(DfsRoundTrip, Text) {
  Dfs fs(3, under(GetParam()));
  fs.write_text("/a/hello.txt", "hello world");
  EXPECT_EQ(fs.read_text("/a/hello.txt"), "hello world");
}

TEST_P(DfsRoundTrip, Doubles) {
  Dfs fs(3, under(GetParam()));
  std::vector<double> values = {1.5, -2.25, 1e308, 0.0};
  fs.write_doubles("/v.bin", values);
  EXPECT_EQ(fs.read_doubles("/v.bin"), values);
}

TEST_P(DfsRoundTrip, EmptyFile) {
  Dfs fs(3, under(GetParam()));
  fs.write_text("/empty", "");
  EXPECT_EQ(fs.file_size("/empty"), 0u);
  EXPECT_EQ(fs.read_text("/empty"), "");
}

TEST_P(DfsRoundTrip, MultiBlockFile) {
  DfsConfig cfg;
  cfg.block_size = 16;  // force many blocks
  Dfs fs(3, under(GetParam(), cfg));
  std::string payload;
  for (int i = 0; i < 100; ++i) payload += "0123456789";
  fs.write_text("/big", payload);
  EXPECT_EQ(fs.read_text("/big"), payload);
}

TEST_P(DfsRoundTrip, SeekAcrossBlocks) {
  DfsConfig cfg;
  cfg.block_size = 8;
  Dfs fs(3, under(GetParam(), cfg));
  std::vector<double> values(10);
  for (int i = 0; i < 10; ++i) values[static_cast<std::size_t>(i)] = i;
  fs.write_doubles("/v", values);
  auto r = fs.open("/v");
  r.seek(5 * sizeof(double));
  EXPECT_EQ(r.read_double(), 5.0);
  EXPECT_EQ(r.read_double(), 6.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, DfsRoundTrip, kBothPolicies, policy_name);

TEST(Dfs, ReadAccounting) {
  MetricsRegistry metrics;
  Dfs fs(3, DfsConfig{}, &metrics);
  fs.write_text("/f", std::string(1000, 'x'));
  IoStats io;
  fs.read_text("/f", &io);
  EXPECT_EQ(io.bytes_read, 1000u);
  EXPECT_EQ(io.bytes_transferred, 1000u);  // HDFS read = remote read
  EXPECT_EQ(metrics.io_totals().bytes_read, 1000u);
}

TEST(Dfs, WriteAccountingWithReplication) {
  MetricsRegistry metrics;
  Dfs fs(5, DfsConfig{}, &metrics);  // replication 3
  IoStats io;
  fs.write_text("/f", std::string(600, 'y'), &io);
  EXPECT_EQ(io.bytes_written, 600u);
  EXPECT_EQ(io.bytes_replicated, 1200u);
  EXPECT_EQ(io.bytes_transferred, 1200u);
  // All replicas resident across datanodes.
  EXPECT_EQ(fs.physical_bytes_stored(), 1800u);
}

TEST(Dfs, ReplicationClampedToClusterSize) {
  Dfs fs(2);  // replication 3 requested, only 2 nodes
  IoStats io;
  fs.write_text("/f", std::string(100, 'z'), &io);
  EXPECT_EQ(io.bytes_replicated, 100u);
  EXPECT_EQ(fs.physical_bytes_stored(), 200u);
}

TEST(Dfs, RemoveEvictsBlocks) {
  Dfs fs(3);
  fs.write_text("/d/f", std::string(100, 'a'));
  EXPECT_GT(fs.physical_bytes_stored(), 0u);
  fs.remove("/d", /*recursive=*/true);
  EXPECT_EQ(fs.physical_bytes_stored(), 0u);
}

TEST(Dfs, WriterMoveAndExplicitClose) {
  Dfs fs(2);
  {
    auto w = fs.create("/m");
    w.write_text("abc");
    auto w2 = std::move(w);
    w2.write_text("def");
    w2.close();
  }
  EXPECT_EQ(fs.read_text("/m"), "abcdef");
}

TEST(Dfs, WriterCommitsOnDestruction) {
  Dfs fs(2);
  {
    auto w = fs.create("/auto");
    w.write_text("x");
  }
  EXPECT_TRUE(fs.is_file("/auto"));
}

TEST(Dfs, DuplicateCreateThrowsOnClose) {
  Dfs fs(2);
  fs.write_text("/dup", "1");
  auto w = fs.create("/dup");
  w.write_text("2");
  EXPECT_THROW(w.close(), DfsError);
}

TEST(Dfs, ShortReadThrows) {
  Dfs fs(2);
  fs.write_text("/small", "ab");
  auto r = fs.open("/small");
  std::array<std::byte, 10> buf{};
  EXPECT_THROW(r.read_exact(buf), DfsError);
}

TEST(Dfs, ReadAllDoublesRejectsMisaligned) {
  Dfs fs(2);
  fs.write_text("/odd", "12345");  // not a multiple of 8
  EXPECT_THROW(fs.read_doubles("/odd"), DfsError);
}

TEST(Dfs, ConcurrentWritersDistinctFiles) {
  // §5.2's design point: tasks write disjoint files with no synchronization.
  MetricsRegistry metrics;
  Dfs fs(8, DfsConfig{}, &metrics);
  ThreadPool pool(8);
  pool.parallel_for(64, [&](std::size_t i) {
    fs.write_text("/out/f." + std::to_string(i), std::string(i + 1, 'w'));
  });
  EXPECT_EQ(fs.list("/out").size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(fs.file_size("/out/f." + std::to_string(i)), i + 1);
  }
}

TEST(Dfs, ConcurrentReadersSameFile) {
  Dfs fs(4);
  const std::string payload(4096, 'r');
  fs.write_text("/shared", payload);
  ThreadPool pool(8);
  pool.parallel_for(32, [&](std::size_t) {
    EXPECT_EQ(fs.read_text("/shared"), payload);
  });
}

TEST(Dfs, MemoryTierSkipsDiskAndReplication) {
  MetricsRegistry metrics;
  Dfs fs(4, DfsConfig{}, &metrics);
  IoStats io;
  auto w = fs.create("/hot", &io, /*overwrite=*/false, StorageTier::kMemory);
  w.write_text(std::string(900, 'm'));
  w.close();
  EXPECT_EQ(io.bytes_written, 0u);
  EXPECT_EQ(io.bytes_replicated, 0u);
  EXPECT_EQ(io.bytes_transferred, 0u);
  EXPECT_EQ(io.bytes_written_memory, 900u);
  // One unreplicated copy resident.
  EXPECT_EQ(fs.physical_bytes_stored(), 900u);
  // Reads are charged normally (remote fetch).
  IoStats read_io;
  EXPECT_EQ(fs.read_text("/hot", &read_io).size(), 900u);
  EXPECT_EQ(read_io.bytes_read, 900u);
}

TEST(Dfs, RenameVisibleToReaders) {
  Dfs fs(2);
  fs.write_text("/tmp.part", "data");
  fs.rename("/tmp.part", "/final");
  EXPECT_EQ(fs.read_text("/final"), "data");
  EXPECT_FALSE(fs.exists("/tmp.part"));
}

// ---- rack-aware placement and transfer recording ----------------------------

std::shared_ptr<const net::Topology> racked_topology_of(int hosts, int racks,
                                                        bool rack_aware) {
  net::TopologyOptions o;
  o.kind = net::TopologyKind::kRacked;
  o.racks = racks;
  o.rack_aware_placement = rack_aware;
  return std::make_shared<const net::Topology>(hosts, 100e6, o);
}

TEST(DfsRacked, HdfsDefaultPlacementWriterRackLocalOffRack) {
  // 8 nodes over 4 racks (2 per rack). Writing from node 5 (rack 2) must
  // put the first replica on the writer, the second in the writer's rack
  // and the third outside it.
  Dfs fs(8);
  auto topo = racked_topology_of(8, 4, /*rack_aware=*/true);
  fs.set_topology(topo);
  ScopedTransferLog log(/*node=*/5);
  fs.write_text("/placed", std::string(1000, 'p'));
  const auto blocks = fs.file_blocks("/placed");
  ASSERT_EQ(blocks.size(), 1u);
  const auto& replicas = blocks[0].replicas;
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 5);
  EXPECT_EQ(topo->rack_of(replicas[1]), topo->rack_of(5));
  EXPECT_NE(replicas[1], 5);
  EXPECT_NE(topo->rack_of(replicas[2]), topo->rack_of(5));

  // The write pipeline was recorded: writer -> r1 -> r2 (no extra hop to
  // the first replica, it IS the writer's node).
  const auto& transfers = log.log().transfers;
  ASSERT_EQ(transfers.size(), 2u);
  EXPECT_EQ(transfers[0].src, 5);
  EXPECT_EQ(transfers[0].dst, replicas[1]);
  EXPECT_EQ(transfers[0].kind, net::TransferKind::kWrite);
  EXPECT_EQ(transfers[1].src, replicas[1]);
  EXPECT_EQ(transfers[1].dst, replicas[2]);
  EXPECT_EQ(transfers[0].bytes, 1000u);
}

TEST(DfsRacked, ClosestReplicaReadAndRecording) {
  Dfs fs(8);
  auto topo = racked_topology_of(8, 4, /*rack_aware=*/true);
  fs.set_topology(topo);
  {
    ScopedTransferLog write_log(/*node=*/5);
    fs.write_text("/near", std::string(500, 'n'));
  }
  // A reader on the writer's node sees a node-local copy (src == dst).
  {
    ScopedTransferLog read_log(/*node=*/5);
    EXPECT_EQ(fs.read_text("/near").size(), 500u);
    ASSERT_EQ(read_log.log().transfers.size(), 1u);
    EXPECT_EQ(read_log.log().transfers[0].src, 5);
    EXPECT_EQ(read_log.log().transfers[0].dst, 5);
    EXPECT_EQ(read_log.log().transfers[0].kind, net::TransferKind::kRead);
  }
  // A reader elsewhere in rack 2 picks the rack-local replica over the
  // off-rack one.
  const int other_in_rack = 4;  // rack_of(4) == rack_of(5) == 2
  {
    ScopedTransferLog read_log(other_in_rack);
    fs.read_text("/near");
    ASSERT_EQ(read_log.log().transfers.size(), 1u);
    const int src = read_log.log().transfers[0].src;
    EXPECT_EQ(topo->rack_of(src), topo->rack_of(other_in_rack));
  }
}

TEST(DfsRacked, FlatTopologyPlacementUnchanged) {
  // A flat Topology attached to the DFS must not change placement: layouts
  // are the same deterministic hash function of the path as with no
  // topology at all, and nothing is recorded.
  Dfs bare(6);
  bare.write_text("/same", std::string(100, 's'));
  Dfs flat(6);
  flat.set_topology(std::make_shared<const net::Topology>(6, 100e6));
  ScopedTransferLog log(/*node=*/2);
  flat.write_text("/same", std::string(100, 's'));
  EXPECT_EQ(bare.file_blocks("/same")[0].replicas,
            flat.file_blocks("/same")[0].replicas);
  EXPECT_TRUE(log.log().transfers.empty());
}

TEST(DfsRacked, KillSimulatesRepairFlowsAndPrefersSourceRack) {
  // Under a racked topology the repair traffic is flow-simulated:
  // re_replication_seconds must come back positive (engine stops falling
  // back to bytes / bandwidth) and repaired blocks stay at full
  // replication on live nodes.
  Dfs fs(8);
  fs.set_topology(racked_topology_of(8, 4, /*rack_aware=*/true));
  {
    ScopedTransferLog log(/*node=*/5);
    fs.write_text("/repair", std::string(4000, 'r'));
  }
  const NodeKillOutcome outcome = fs.kill_datanode(5);
  EXPECT_EQ(outcome.re_replicated_blocks, 1);
  EXPECT_EQ(outcome.re_replicated_bytes, 4000u);
  EXPECT_GT(outcome.re_replication_seconds, 0.0);
  const auto replicas = fs.file_blocks("/repair")[0].replicas;
  ASSERT_EQ(replicas.size(), 3u);
  for (int r : replicas) EXPECT_NE(r, 5);
}

}  // namespace
}  // namespace mri::dfs
