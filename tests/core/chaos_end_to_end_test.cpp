// End-to-end chaos acceptance (§7.4): a deterministic run with one node
// killed mid-inversion completes with a correct inverse and non-zero
// recovery accounting, two same-seed runs are bit-identical, and losing
// every replica of a block fails fast with UnrecoverableBlock and the same
// message every run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "dfs/dfs.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "sim/chaos.hpp"

namespace mri::core {
namespace {

constexpr Index kOrder = 64;
constexpr Index kNb = 16;  // depth-2 plan on 4 nodes: partition + 3 LU + final
constexpr int kNodes = 4;

CostModel model() { return CostModel::ec2_medium().scaled_down(40.0); }

struct E2eRun {
  bool completed = false;
  std::string error;
  double residual = 0.0;
  double sim_seconds = 0.0;
  RunReport report;
  std::string report_json;
  std::vector<mr::JobResult> jobs;
};

E2eRun run_once(const std::vector<ChaosEvent>& events, int replication = 3) {
  MetricsRegistry metrics;
  Cluster cluster(kNodes, model());
  dfs::DfsConfig cfg;
  cfg.replication = replication;
  dfs::Dfs fs(kNodes, cfg, &metrics);
  ThreadPool pool(4);
  ChaosEngine chaos;
  for (const ChaosEvent& e : events) chaos.add_event(e);
  fs.bind_chaos(&chaos, model().network_bandwidth);

  MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics, &chaos);
  InversionOptions options;
  options.nb = kNb;
  const Matrix a = random_matrix(kOrder, 11);

  E2eRun run;
  try {
    MapReduceInverter::Result result = inverter.invert(a, options);
    run.completed = true;
    run.residual = inversion_residual(a, result.inverse);
    run.sim_seconds = result.report.sim_seconds;
    run.jobs = result.jobs;
    run.report = mr::build_run_report(result.jobs, cluster, &metrics,
                                      result.master_spans, &chaos);
    run.report_json = run_report_json(run.report);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

/// A kill time inside a reduce window ~halfway through the clean run: the
/// dead node then holds completed map outputs of the job, forcing a
/// recompute wave (not just a slot-pool shrink).
double pick_kill_time(const E2eRun& clean) {
  const double target = 0.5 * clean.sim_seconds;
  double best = -1.0, best_distance = 0.0;
  for (const mr::JobResult& job : clean.jobs) {
    if (job.reduce_phase_seconds <= 0.0) continue;
    const double launch = job.sim_seconds - job.map_phase_seconds -
                          job.reduce_phase_seconds - job.recovery_seconds;
    const double at = job.start_seconds + launch + job.map_phase_seconds +
                      0.25 * job.reduce_phase_seconds;
    const double distance = std::abs(at - target);
    if (best < 0.0 || distance < best_distance) {
      best = at;
      best_distance = distance;
    }
  }
  EXPECT_GE(best, 0.0) << "no job with a reduce phase in the clean run";
  return best;
}

TEST(ChaosEndToEnd, SingleNodeKillRecoversWithCorrectInverse) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  ASSERT_LT(clean.residual, 1e-10);

  const double kill_at = pick_kill_time(clean);
  const E2eRun killed =
      run_once({{ChaosEventKind::kKillNode, kill_at, kNodes - 1, 1.0}});
  ASSERT_TRUE(killed.completed)
      << "run did not survive the node kill: " << killed.error;
  EXPECT_LT(killed.residual, 1e-10) << "recovered inverse lost accuracy";
  EXPECT_GT(killed.sim_seconds, clean.sim_seconds)
      << "recovery must cost simulated time";

  const RecoveryReport& recovery = killed.report.recovery;
  EXPECT_EQ(recovery.nodes_killed, 1);
  EXPECT_GT(recovery.tasks_recomputed, 0)
      << "the dead node's completed map outputs were never re-executed";
  EXPECT_GT(recovery.re_replicated_bytes, 0u)
      << "the namenode never re-replicated the dead node's blocks";
  EXPECT_GT(recovery.recovery_seconds, 0.0);
  EXPECT_EQ(recovery.blocks_lost, 0);
  ASSERT_EQ(killed.report.chaos_events.size(), 1u);
  EXPECT_DOUBLE_EQ(killed.report.chaos_events[0].at, kill_at);

  // The clean report must carry an all-zero recovery section (stable schema).
  EXPECT_EQ(clean.report.recovery.nodes_killed, 0);
  EXPECT_EQ(clean.report.recovery.tasks_recomputed, 0);
  EXPECT_TRUE(clean.report.chaos_events.empty());
}

TEST(ChaosEndToEnd, SameSeedKillRunsAreBitIdentical) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  const double kill_at = pick_kill_time(clean);
  const std::vector<ChaosEvent> events = {
      {ChaosEventKind::kKillNode, kill_at, 2, 1.0}};
  const E2eRun a = run_once(events);
  const E2eRun b = run_once(events);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_EQ(a.report_json, b.report_json)
      << "same schedule, same seed, different report";
}

TEST(ChaosEndToEnd, LosingEveryReplicaFailsFast) {
  const E2eRun clean = run_once({});
  ASSERT_TRUE(clean.completed) << clean.error;
  const double kill_at = pick_kill_time(clean);
  const std::vector<ChaosEvent> events = {
      {ChaosEventKind::kKillNode, kill_at, kNodes - 1, 1.0}};
  const E2eRun lost = run_once(events, /*replication=*/1);
  EXPECT_FALSE(lost.completed)
      << "unreplicated blocks died with the node; the run cannot succeed";
  EXPECT_NE(lost.error.find("nrecoverable"), std::string::npos)
      << "failure must surface UnrecoverableBlock, got: " << lost.error;
  // The message names the block by its index within the file, not by its
  // id (ids follow commit order, which task threads race on), so a
  // same-seed rerun fails with the same words.
  const E2eRun again = run_once(events, /*replication=*/1);
  EXPECT_EQ(lost.error, again.error);
}

}  // namespace
}  // namespace mri::core
