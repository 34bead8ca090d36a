// Block-integrity invariants: CRC32C checksums on the write path, silent
// corruption served as-is with verification off, detect + read-repair with
// it on, EC degraded decodes around corrupt cells, lineage repair for
// memory-tier partitions, hot-cache staleness after corruption, and the
// background scrubber catching copies no read ever touches.
#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "both_policies.hpp"
#include "common/error.hpp"
#include "dfs/integrity/checksum_store.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "sim/chaos.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"

namespace mri::dfs {
namespace {

std::string payload(std::size_t bytes) {
  std::string s;
  s.reserve(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    s += static_cast<char>('a' + (i % 26));
  return s;
}

DfsConfig verified(int replication = 3, std::uint64_t block_size = 64) {
  DfsConfig cfg;
  cfg.block_size = block_size;
  cfg.replication = replication;
  cfg.verify_checksums = true;
  return cfg;
}

TEST(Crc32c, KnownAnswer) {
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(digits), 9)),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(CorruptCopy, DeterministicAndDifferent) {
  auto data = std::make_shared<const std::vector<std::byte>>(
      256, std::byte{0x5a});
  const BlockData a = corrupt_copy(data, 17);
  const BlockData b = corrupt_copy(data, 17);
  const BlockData c = corrupt_copy(data, 18);
  EXPECT_EQ(*a, *b) << "same salt must flip the same bits";
  EXPECT_NE(*a, *data) << "a corrupt copy must actually differ";
  EXPECT_NE(*c, *data);
  EXPECT_EQ(data->size(), a->size()) << "corruption never changes length";
  EXPECT_EQ(std::vector<std::byte>(256, std::byte{0x5a}), *data)
      << "the pristine payload must not be touched";
}

TEST(Integrity, WritePathRecordsChecksums) {
  Dfs fs(4, verified());
  fs.write_text("/crc/a", payload(200));  // 200 B / 64 B blocks = 4 blocks
  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.cells_checksummed, 4);
  EXPECT_EQ(stats.corruptions_injected, 0);
  EXPECT_EQ(stats.corruptions_detected, 0);
}

TEST(Integrity, VerifyOffServesRottenBytesSilently) {
  DfsConfig cfg = verified();
  cfg.verify_checksums = false;
  Dfs fs(4, cfg);
  const std::string data = payload(200);
  fs.write_text("/rot/a", data);
  const int primary = fs.file_blocks("/rot/a").front().replicas.front();

  fs.corrupt_block(primary, /*at=*/1.0);
  const std::string read = fs.read_text("/rot/a");
  EXPECT_NE(read, data) << "silent corruption must reach the reader";
  EXPECT_EQ(read.size(), data.size());

  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.corruptions_injected, 1);
  EXPECT_EQ(stats.corruptions_detected, 0) << "nothing verifies, so nothing "
                                              "can detect";
  // The read must be repeatable (same rotten view), not freshly random.
  EXPECT_EQ(fs.read_text("/rot/a"), read);
}

// Read-repair and the scrubber run under both codecs: a copy is repaired
// in place from a healthy replica, a stripe cell is decoded around and
// rebuilt from k clean survivors.
class IntegrityBoth : public ::testing::TestWithParam<StoragePolicy> {};

TEST_P(IntegrityBoth, VerifyOnDetectsAndReadRepairs) {
  MetricsRegistry metrics;
  Dfs fs(4, under(GetParam(), verified()), &metrics);
  const std::string data = payload(200);
  fs.write_text("/fix/a", data);
  const int primary = fs.file_blocks("/fix/a").front().replicas.front();

  fs.corrupt_block(primary, /*at=*/1.0);
  EXPECT_EQ(fs.integrity_report().corruptions_injected, 1);

  EXPECT_EQ(fs.read_text("/fix/a"), data)
      << "verification must repair before serving";
  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.corruptions_detected, 1);
  EXPECT_EQ(repaired_by(GetParam(), stats), 1);
  EXPECT_EQ(stats.cells_quarantined, 1);
  ASSERT_EQ(stats.repairs.size(), 1u);
  EXPECT_EQ(stats.repairs.front().kind,
            std::string(striped(GetParam()) ? "ec" : "copy"));
  EXPECT_FALSE(stats.repairs.front().by_scrubber);

  // The mark is cleared: later reads serve clean bytes with no new repair.
  EXPECT_EQ(fs.read_text("/fix/a"), data);
  EXPECT_EQ(repaired_by(GetParam(), fs.integrity_report()), 1);
}

TEST_P(IntegrityBoth, ScrubberCatchesCorruptionNoReadTouches) {
  DfsConfig cfg = verified();
  cfg.scrub_interval_seconds = 10.0;
  Dfs fs(4, under(GetParam(), cfg));
  const CostModel model = CostModel::ec2_medium();
  ChaosEngine chaos;
  fs.bind_chaos(&chaos, model.network_bandwidth, &model);
  const std::string data = payload(200);
  fs.write_text("/cold/a", data);
  const int primary = fs.file_blocks("/cold/a").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/2.0);

  chaos.advance_to(5.0);  // before the first interval boundary: no pass yet
  EXPECT_EQ(fs.integrity_report().scrub_passes, 0);

  chaos.advance_to(25.0);  // passes at t=10 and t=20
  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.scrub_passes, 2);
  EXPECT_EQ(stats.corruptions_detected, 1);
  EXPECT_EQ(repaired_by(GetParam(), stats), 1);
  EXPECT_GT(stats.scrub_bytes_scanned, 0u);
  EXPECT_GT(stats.scrub_seconds, 0.0);
  ASSERT_EQ(stats.repairs.size(), 1u);
  EXPECT_TRUE(stats.repairs.front().by_scrubber);
  ASSERT_EQ(stats.scrub_spans.size(), 2u);
  EXPECT_EQ(stats.scrub_spans.front().cells_repaired, 1);
  EXPECT_EQ(stats.scrub_spans.back().cells_repaired, 0);

  EXPECT_EQ(fs.read_text("/cold/a"), data);
}

INSTANTIATE_TEST_SUITE_P(Policies, IntegrityBoth, kBothPolicies, policy_name);

TEST(Integrity, EcDegradedReadDecodesAroundExactlyKCleanCells) {
  DfsConfig cfg = verified(3, 1024);
  cfg.storage_policy = StoragePolicy::kErasureCoded;
  cfg.ec.k = 3;
  cfg.ec.m = 2;
  Dfs fs(6, cfg);
  const std::string data = payload(600);  // single RS(3,2) stripe
  fs.write_text("/ec/a", data);
  const BlockLocation loc = fs.file_blocks("/ec/a").front();
  ASSERT_EQ(loc.replicas.size(), 5u);

  // Corrupt two cells: exactly k = 3 clean cells survive, the decode
  // threshold. Verification excludes the marked cells and decodes.
  fs.corrupt_block(loc.replicas[0], /*at=*/1.0);
  fs.corrupt_block(loc.replicas[1], /*at=*/2.0);
  EXPECT_EQ(fs.integrity_report().corruptions_injected, 2);

  EXPECT_EQ(fs.read_text("/ec/a"), data)
      << "degraded decode from exactly k clean survivors";
  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.corruptions_detected, 2);
  EXPECT_EQ(stats.cells_repaired_ec, 2);
  EXPECT_EQ(fs.read_text("/ec/a"), data) << "repaired stripe reads clean";
}

TEST(Integrity, EcRefusesToServeWithFewerThanKCleanCells) {
  DfsConfig cfg = verified(3, 1024);
  cfg.storage_policy = StoragePolicy::kErasureCoded;
  cfg.ec.k = 3;
  cfg.ec.m = 2;
  Dfs fs(6, cfg);
  fs.write_text("/ec/b", payload(600));
  const BlockLocation loc = fs.file_blocks("/ec/b").front();
  for (int i = 0; i < 3; ++i) {
    fs.corrupt_block(loc.replicas[static_cast<std::size_t>(i)],
                     /*at=*/1.0 + i);
  }
  // 2 clean cells < k = 3: verification refuses to decode known-bad bytes.
  EXPECT_THROW(fs.read_text("/ec/b"), UnrecoverableBlock);
}

TEST(Integrity, HotCacheNeverServesAStaleCopyAfterCorruption) {
  // Regression: the namenode hot cache retains full-block payloads; a
  // corruption on the backing datanode copy must poison the cached entry,
  // not let the cache keep serving bytes that no longer match the disk.
  MetricsRegistry metrics;
  DfsConfig cfg = verified();
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(4, cfg, &metrics);
  const std::string data = payload(300);
  fs.write_text("/factors/ut_0.bin", data);
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_GE(metrics.value("dfs_hot_cache_hits"), 1u);

  const int primary =
      fs.file_blocks("/factors/ut_0.bin").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/1.0);

  // Verification on: the poisoned entry is bypassed, the datanode path
  // repairs, and the caller still sees pristine bytes.
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_EQ(fs.integrity_report().cells_repaired_copy, 1);
  // Repair clears the poison: the entry is served from cache again.
  const std::uint64_t hits = metrics.value("dfs_hot_cache_hits");
  EXPECT_EQ(fs.read_text("/factors/ut_0.bin"), data);
  EXPECT_GT(metrics.value("dfs_hot_cache_hits"), hits);
}

TEST(Integrity, HotCacheServesTheRotWhenVerificationIsOff) {
  // The other direction of the staleness regression: with verification off
  // the cache must mirror what a datanode read would return — the rotten
  // bytes — not its stale pristine copy.
  DfsConfig cfg = verified();
  cfg.verify_checksums = false;
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(4, cfg);
  const std::string data = payload(300);
  fs.write_text("/factors/ut_1.bin", data);
  EXPECT_EQ(fs.read_text("/factors/ut_1.bin"), data);

  const int primary =
      fs.file_blocks("/factors/ut_1.bin").front().replicas.front();
  fs.corrupt_block(primary, /*at=*/1.0);
  EXPECT_NE(fs.read_text("/factors/ut_1.bin"), data)
      << "hot cache must not hide corruption the datanodes would serve";
}

TEST(Integrity, KillClearsRotThatDiedWithTheNode) {
  // With verification off, corruption poisons the hot entry so cached reads
  // serve the same rot the disk would. When the corrupted copy's node dies
  // and the block is re-materialized from a clean replica, the datanode
  // tier is pristine again — the cache must follow, not keep serving a
  // corruption that no longer exists anywhere on disk.
  DfsConfig cfg;  // verification off: rot is served, never detected
  cfg.block_size = 64;
  cfg.replication = 2;
  cfg.hot_cache_bytes = 1 << 20;
  Dfs fs(3, cfg);
  const std::string data = payload(100);
  fs.write_text("/factors/ut_2.bin", data);
  const int victim =
      fs.file_blocks("/factors/ut_2.bin").front().replicas.front();
  fs.corrupt_block(victim, 1.0);
  EXPECT_NE(fs.read_text("/factors/ut_2.bin"), data)
      << "corrupting the primary copy must poison the cached bytes too";
  fs.kill_datanode(victim);
  EXPECT_EQ(fs.read_text("/factors/ut_2.bin"), data)
      << "hot cache kept rot whose only corrupted copy died with the node";
  EXPECT_TRUE(fs.integrity_report().repairs.empty())
      << "nothing was detected or repaired: the bad copy simply died";
}

TEST(Integrity, MemoryTierCorruptionRoutesThroughLineage) {
  struct Recorder final : TierListener {
    std::vector<std::string> corrupted;
    void on_commit(const std::string&, StorageTier, std::uint64_t, int,
                   std::span<const std::byte>, const IoStats*) override {}
    void on_open(const std::string&, StorageTier, std::uint64_t) override {}
    void on_remove(const std::string&) override {}
    double on_corrupt(const std::string& path, double) override {
      corrupted.push_back(path);
      return 2.5;  // simulated producer re-run
    }
  } recorder;

  Dfs fs(3, verified());
  fs.set_tier_listener(&recorder);
  const std::string data = payload(120);
  {
    Dfs::Writer w = fs.create("/mem/p", nullptr, false, StorageTier::kMemory);
    w.write_text(data);
    w.close();
  }
  const int node = fs.file_blocks("/mem/p").front().replicas.front();
  fs.corrupt_block(node, /*at=*/1.0);

  EXPECT_EQ(fs.read_text("/mem/p"), data);
  const IntegrityReport stats = fs.integrity_report();
  EXPECT_EQ(stats.cells_repaired_lineage, 1);
  EXPECT_EQ(stats.cells_repaired_copy, 0);
  ASSERT_EQ(recorder.corrupted.size(), 1u);
  EXPECT_EQ(recorder.corrupted.front(), "/mem/p");
  fs.set_tier_listener(nullptr);
}

TEST(Integrity, SameSequenceIsBitIdenticalAcrossInstances) {
  const auto drive = [](Dfs& fs) {
    fs.write_text("/det/a", payload(300));
    fs.write_text("/det/b", payload(180));
    fs.corrupt_block(1, /*at=*/3.0);
    fs.corrupt_block(2, /*at=*/7.0, /*salt=*/0x51ull);
    std::string out = fs.read_text("/det/a") + fs.read_text("/det/b");
    fs.scrub_to(40.0);
    return out;
  };
  DfsConfig cfg = verified();
  cfg.scrub_interval_seconds = 15.0;
  Dfs a(5, cfg);
  Dfs b(5, cfg);
  EXPECT_EQ(drive(a), drive(b));

  const IntegrityReport sa = a.integrity_report();
  const IntegrityReport sb = b.integrity_report();
  EXPECT_EQ(sa.corruptions_injected, sb.corruptions_injected);
  EXPECT_EQ(sa.corruptions_detected, sb.corruptions_detected);
  EXPECT_EQ(sa.cells_repaired_copy, sb.cells_repaired_copy);
  EXPECT_EQ(sa.scrub_passes, sb.scrub_passes);
  EXPECT_EQ(sa.scrub_bytes_scanned, sb.scrub_bytes_scanned);
  EXPECT_EQ(sa.scrub_seconds, sb.scrub_seconds);
  ASSERT_EQ(sa.repairs.size(), sb.repairs.size());
  for (std::size_t i = 0; i < sa.repairs.size(); ++i) {
    EXPECT_EQ(sa.repairs[i].path, sb.repairs[i].path);
    EXPECT_EQ(sa.repairs[i].cell, sb.repairs[i].cell);
    EXPECT_EQ(sa.repairs[i].node, sb.repairs[i].node);
    EXPECT_EQ(sa.repairs[i].at, sb.repairs[i].at);
  }
}

}  // namespace
}  // namespace mri::dfs
