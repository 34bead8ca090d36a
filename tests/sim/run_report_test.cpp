// Run-report aggregation and JSON export over synthetic phase traces.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>

#include "sim/run_report.hpp"

namespace mri {
namespace {

TaskTraceEvent event(int task, int attempt, int node, int slot, double start,
                     double end, bool failed = false, bool backup = false) {
  TaskTraceEvent e;
  e.task = task;
  e.attempt = attempt;
  e.node = node;
  e.slot = slot;
  e.start = start;
  e.end = end;
  e.failed = failed;
  e.backup = backup;
  return e;
}

RunReport two_slot_run() {
  RunReport r;
  r.total_slots = 2;
  r.jobs = 1;
  r.sim_seconds = 17.0;
  PhaseTrace map;
  map.job = "lu-level-0";
  map.phase = "map";
  map.start = 15.0;  // after job launch
  map.duration = 2.0;
  map.events = {
      event(0, 0, 0, 0, 0.0, 1.0),
      event(1, 0, 1, 1, 0.0, 0.5, /*failed=*/true),
      event(1, 1, 0, 0, 1.0, 2.0),  // retry on the surviving node
  };
  r.phases.push_back(std::move(map));
  return r;
}

// A report with one entry in every list the renderers walk: both phases,
// every ChaosEventKind, an admitted and a rejected request, copy/ec/lineage
// repairs, a scrub pass, a reconstruction, a spill, a recompute, per-phase
// link loads, a master span and a failure/retry pair. The job name carries
// a quote, a backslash, a tab and a control byte, and one link a NaN and
// an infinity, so escaping and the non-finite clamp are pinned too.
RunReport golden_report() {
  RunReport r;
  r.total_slots = 4;
  r.jobs = 2;
  r.sim_seconds = 42.5;
  r.failures_recovered = 1;
  r.backups_run = 1;
  r.shuffle_local_bytes = 11;
  r.shuffle_remote_bytes = 22;
  r.io.bytes_written = 1;
  r.io.bytes_read = 2;
  r.io.bytes_transferred = 3;
  r.io.bytes_replicated = 4;
  r.io.bytes_written_memory = 5;
  r.io.bytes_read_memory = 6;
  r.io.bytes_spilled = 7;
  r.io.bytes_parity = 8;
  r.io.bytes_reconstructed = 9;
  r.io.degraded_reads = 10;
  r.io.mults = 1234567890123;
  r.io.adds = 13;
  r.dfs_io = r.io;
  r.dfs_io.bytes_read = 99;
  r.counters["dfs_read_errors_survived"] = 1;
  r.counters["task_attempts"] = 9;

  const std::string job = std::string("lu \"a\\b\"\t") + '\x01';
  PhaseTrace map;
  map.job = job;
  map.phase = "map";
  map.start = 1.25;
  map.duration = 4.0;
  map.events = {
      event(0, 0, 0, 0, 0.0, 1.0),
      event(1, 0, 1, 2, 0.0, 0.5, /*failed=*/true),
      event(1, 1, 0, 1, 1.0, 2.0),
      event(2, 0, 1, 3, 0.0, 3.0),
      event(2, 1, 0, 0, 1.5, 3.0, /*failed=*/false, /*backup=*/true),
  };
  TaskTraceEvent lost = event(3, 0, 1, 2, 0.5, 1.5, /*failed=*/true);
  lost.chaos = true;
  map.events.push_back(lost);
  TaskTraceEvent redo = event(0, 1, 0, 1, 3.0, 4.0);
  redo.recovery = true;
  map.events.push_back(redo);
  LinkReport named;
  named.name = "host1.up";
  named.bytes = 4096;
  named.busy_seconds = 0.125;
  named.peak_utilization = 0.5;
  LinkReport unnamed;  // named from the run-level links
  unnamed.bytes = 512;
  unnamed.busy_seconds = 0.0625;
  unnamed.peak_utilization = 0.25;
  LinkReport idle;  // no bytes: no span
  map.link_loads = {named, unnamed, idle};
  r.phases.push_back(map);

  PhaseTrace reduce;
  reduce.job = "invert";
  reduce.phase = "reduce";
  reduce.start = 6.0;
  reduce.duration = 2.5;
  reduce.events = {event(0, 0, 2, 4, 0.0, 2.5)};
  LinkReport orphan;  // beyond the run-level links: "link N"
  orphan.bytes = 64;
  orphan.busy_seconds = 0.5;
  orphan.peak_utilization = 1.0;
  reduce.link_loads = {idle, idle, idle, orphan};
  r.phases.push_back(reduce);

  r.job_spans = {{job, 0.0, 5.25}, {"invert", 5.5, 8.5}};
  MasterSpan span;
  span.start = 5.25;
  span.end = 5.5;
  span.io.mults = 77;
  span.io.bytes_read = 88;
  r.master_spans = {span};

  r.network.enabled = true;
  r.network.topology = "racked";
  r.network.racks = 2;
  r.network.oversubscription = 4.0;
  r.network.rack_aware_placement = true;
  r.network.node_local_bytes = 100;
  r.network.rack_local_bytes = 200;
  r.network.cross_rack_bytes = 300;
  r.network.rack_local_attempts = 5;
  r.network.cross_rack_attempts = 2;
  LinkReport l0;
  l0.name = "host0.up";
  l0.bytes = 4096;
  l0.busy_seconds = std::numeric_limits<double>::quiet_NaN();
  l0.peak_utilization = std::numeric_limits<double>::infinity();
  LinkReport l1;
  l1.name = "rack0.up";
  l1.bytes = 512;
  l1.busy_seconds = 0.0625;
  l1.peak_utilization = 1.0 / 3.0;
  r.network.links = {l0, l1};

  r.recovery.nodes_killed = 1;
  r.recovery.nodes_degraded = 2;
  r.recovery.read_errors_injected = 3;
  r.recovery.tasks_recomputed = 4;
  r.recovery.attempts_killed = 5;
  r.recovery.re_replicated_bytes = 6;
  r.recovery.re_replicated_blocks = 7;
  r.recovery.blocks_lost = 8;
  r.recovery.re_replication_seconds = 9.5;
  r.recovery.recovery_seconds = 10.25;
  r.recovery.recovery_io.bytes_read = 11;
  r.recovery.request_retries = 12;
  r.recovery.requests_unrecoverable = 13;
  r.recovery.partitions_recomputed = 14;
  r.recovery.lineage_waves = 15;
  r.recovery.lineage_recompute_seconds = 16.125;
  r.recovery.lineage_recomputed_bytes = 17;
  r.recovery.ec_cells_reconstructed = 18;
  r.recovery.ec_reconstructed_bytes = 19;
  r.recovery.read_errors_survived = 20;
  const ChaosEventKind kinds[] = {
      ChaosEventKind::kKillNode, ChaosEventKind::kDegradeNode,
      ChaosEventKind::kBlockReadError, ChaosEventKind::kCorruptBlock};
  for (int i = 0; i < 4; ++i) {
    ChaosEvent e;
    e.kind = kinds[i];
    e.at = 0.75 * (i + 1);
    e.node = i;
    e.factor = i == 1 ? 0.5 : 1.0;
    r.chaos_events.push_back(e);
  }

  r.engine.enabled = true;
  r.engine.cache_insertions = 1;
  r.engine.cache_evictions = 2;
  r.engine.cache_hits = 3;
  r.engine.cache_resident_bytes = 4;
  r.engine.cache_peak_resident_bytes = 5;
  r.engine.spilled_bytes = 6;
  r.engine.tracked_partitions = 7;
  r.engine.partitions_recomputed = 8;
  r.engine.lineage_waves = 9;
  r.engine.recompute_seconds = 1.0 / 7.0;
  r.engine.recomputed_bytes = 10;
  r.engine.lineage_stall_seconds = 0.375;
  EngineSpillSpan spill;
  spill.at = 1.25;
  spill.path = "/mem/l_0";
  spill.bytes = 256;
  r.engine.spills = {spill};
  EngineRecomputeSpan recompute;
  recompute.at = 2.0;
  recompute.duration = 0.5;
  recompute.wave = 1;
  recompute.path = "/mem/u_1";
  recompute.bytes = 512;
  r.engine.recomputes = {recompute};

  r.storage.policy = "erasure_coded";
  r.storage.ec_k = 6;
  r.storage.ec_m = 3;
  r.storage.logical_bytes = 600;
  r.storage.physical_bytes = 900;
  r.storage.physical_overhead = 1.5;
  r.storage.parity_bytes = 300;
  r.storage.reconstructed_bytes = 50;
  r.storage.degraded_reads = 2;
  r.storage.cells_reconstructed = 3;
  r.storage.hot_cache_capacity_bytes = 1 << 20;
  r.storage.hot_cache_resident_bytes = 4096;
  r.storage.hot_cache_resident_files = 1;
  r.storage.hot_cache_hits = 6;
  r.storage.hot_cache_hit_bytes = 24576;
  StorageReconstruction rebuild;
  rebuild.at = 0.75;
  rebuild.node = 1;
  rebuild.cells = 3;
  rebuild.bytes = 150;
  rebuild.seconds = 0.2;
  r.storage.reconstructions = {rebuild};

  r.integrity.verify_checksums = true;
  r.integrity.scrub_interval_seconds = 20.0;
  r.integrity.cells_checksummed = 1;
  r.integrity.cells_verified = 2;
  r.integrity.bytes_verified = 3;
  r.integrity.corruptions_injected = 4;
  r.integrity.corruptions_detected = 5;
  r.integrity.cells_repaired_copy = 6;
  r.integrity.cells_repaired_ec = 7;
  r.integrity.cells_repaired_lineage = 8;
  r.integrity.cells_quarantined = 9;
  r.integrity.scrub_passes = 10;
  r.integrity.scrub_bytes_scanned = 11;
  r.integrity.scrub_seconds = 0.1;
  const char* repair_kinds[] = {"copy", "ec", "lineage"};
  for (int i = 0; i < 3; ++i) {
    IntegrityRepairSpan repair;
    repair.at = 3.0 + i;
    repair.node = i + 1;
    repair.path = "/work/ut_";
    repair.path += std::to_string(i);
    repair.path += ".bin";
    repair.cell = i;
    repair.bytes = 4096;
    repair.kind = repair_kinds[i];
    repair.by_scrubber = i == 2;
    r.integrity.repairs.push_back(repair);
  }
  ScrubPassSpan scrub;
  scrub.at = 20.0;
  scrub.seconds = 0.1;
  scrub.bytes_scanned = 11;
  scrub.cells_verified = 2;
  scrub.cells_repaired = 1;
  r.integrity.scrub_spans = {scrub};

  r.kernel.backend = "simd";
  r.kernel.multiply_strategy = "multiround";
  r.kernel.replication = 2;
  r.kernel.multiply_rounds = 3;
  r.kernel.gemm_calls = 4;
  r.kernel.trsm_calls = 5;
  r.kernel.kernel_flops = 6;
  r.kernel.kernel_seconds = 7.0;  // wall-clock: never rendered
  r.kernel.achieved_gflops = 8.0;

  RequestStat admitted;
  admitted.tenant = "alice";
  admitted.weight = 2;
  admitted.arrival = 0.5;
  admitted.dispatch = 1.0;
  admitted.finish = 8.5;
  admitted.slot_seconds = 12.0;
  admitted.deadline_seconds = 5.0;
  admitted.retries = 1;
  RequestStat rejected;
  rejected.tenant = "bob";
  rejected.arrival = 2.0;
  rejected.rejected = true;
  aggregate_tenant_reports(&r, {admitted, rejected});
  aggregate_run_report(&r);
  return r;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MRI_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RunReport, GoldenBytesOfBothRenderings) {
  const RunReport r = golden_report();
  EXPECT_EQ(run_report_json(r) + "\n", read_golden("run_report.json"));
  EXPECT_EQ(chrome_trace_json(r) + "\n", read_golden("chrome_trace.json"));
}

TEST(RunReport, PercentileEdgeCases) {
  // Empty input is defined as 0 (no samples, no latency).
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  // q clamps to the extremes: q<=0 is the min, q>=1 the max.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, -0.5), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 2.0), 3.0);
  // Single element: every quantile is that element.
  EXPECT_EQ(percentile({7.0}, 0.25), 7.0);
  EXPECT_EQ(percentile({7.0}, 0.75), 7.0);
  // Two elements interpolate linearly between closest ranks
  // (numpy default): p50 of {10, 20} is 15, p25 is 12.5.
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.50), 15.0, 1e-12);
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.25), 12.5, 1e-12);
  EXPECT_NEAR(percentile({20.0, 10.0}, 0.75), 17.5, 1e-12);
  // Input order never matters (sorted internally, by value).
  EXPECT_NEAR(percentile({1.0, 9.0, 5.0, 3.0, 7.0}, 0.5), 5.0, 1e-12);
}

TEST(RunReport, NetworkSectionAlwaysPresent) {
  // The "network" object is part of the stable schema even on flat runs
  // (enabled=false, empty links) so downstream parsers never branch.
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  EXPECT_NE(json.find("\"network\":{\"enabled\":false"), std::string::npos);
  EXPECT_NE(json.find("\"topology\":\"flat\""), std::string::npos);
  EXPECT_NE(json.find("\"links\":[]"), std::string::npos);

  RunReport racked = two_slot_run();
  racked.network.enabled = true;
  racked.network.topology = "racked";
  racked.network.racks = 2;
  racked.network.oversubscription = 4.0;
  racked.network.rack_aware_placement = true;
  racked.network.node_local_bytes = 5;
  racked.network.cross_rack_bytes = 9;
  LinkReport link;
  link.name = "rack0.up";
  link.bytes = 42;
  link.busy_seconds = 1.5;
  link.peak_utilization = 0.75;
  racked.network.links.push_back(link);
  aggregate_run_report(&racked);
  const std::string rj = run_report_json(racked);
  EXPECT_NE(rj.find("\"network\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(rj.find("\"topology\":\"racked\""), std::string::npos);
  EXPECT_NE(rj.find("\"oversubscription\":4"), std::string::npos);
  EXPECT_NE(rj.find("\"name\":\"rack0.up\""), std::string::npos);
  EXPECT_NE(rj.find("\"bytes\":42"), std::string::npos);
  EXPECT_NE(rj.find("\"cross_rack_bytes\":9"), std::string::npos);
}

TEST(RunReport, ChromeTraceNetworkLaneOnlyWhenLinksCarryBytes) {
  RunReport flat = two_slot_run();
  aggregate_run_report(&flat);
  EXPECT_EQ(chrome_trace_json(flat).find("\"name\":\"network\""),
            std::string::npos);

  RunReport racked = two_slot_run();
  LinkReport link;
  link.name = "host0.up";
  link.bytes = 1000;
  link.busy_seconds = 0.5;
  link.peak_utilization = 1.0;
  racked.phases[0].link_loads.push_back(link);
  aggregate_run_report(&racked);
  const std::string json = chrome_trace_json(racked);
  EXPECT_NE(json.find("\"name\":\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"host0.up\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_utilization\":"), std::string::npos);
}

TEST(RunReport, AggregatesWavesUtilizationStragglers) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  ASSERT_EQ(r.phase_reports.size(), 1u);
  const PhaseReport& p = r.phase_reports[0];
  EXPECT_EQ(p.job, "lu-level-0");
  EXPECT_EQ(p.phase, "map");
  EXPECT_EQ(p.tasks, 2);
  EXPECT_EQ(p.attempts, 3);
  EXPECT_EQ(p.failures, 1);
  EXPECT_EQ(p.backups, 0);
  EXPECT_EQ(p.waves, 2);  // slot 0 ran two attempts
  EXPECT_NEAR(p.busy_seconds, 2.5, 1e-12);
  EXPECT_NEAR(p.slot_utilization, 2.5 / (2 * 2.0), 1e-12);
  EXPECT_NEAR(p.median_task_end, 2.0, 1e-12);
  EXPECT_NEAR(p.max_task_end, 2.0, 1e-12);
  EXPECT_NEAR(p.straggler_ratio, 1.0, 1e-12);
}

TEST(RunReport, FailureTimelineIsRunRelative) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  ASSERT_EQ(r.failure_timeline.size(), 1u);
  const FailureRecovery& f = r.failure_timeline[0];
  EXPECT_EQ(f.task, 1);
  EXPECT_EQ(f.attempt, 0);
  EXPECT_EQ(f.node, 1);
  EXPECT_NEAR(f.failed_at, 15.5, 1e-12);    // phase start + 0.5
  EXPECT_NEAR(f.retry_start, 16.0, 1e-12);  // phase start + 1.0
}

TEST(RunReport, AggregationIsIdempotent) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  aggregate_run_report(&r);
  EXPECT_EQ(r.phase_reports.size(), 1u);
  EXPECT_EQ(r.failure_timeline.size(), 1u);
}

TEST(RunReport, JsonContainsSchemaKeys) {
  RunReport r = two_slot_run();
  r.io.bytes_read = 123;
  r.counters["jobs"] = 1;
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"sim_seconds\"", "\"jobs\"", "\"failures_recovered\"",
        "\"backups_run\"", "\"total_slots\"", "\"io\"", "\"shuffle\"",
        "\"dfs_io\"", "\"counters\"", "\"phases\"", "\"failure_timeline\"",
        "\"waves\"", "\"slot_utilization\"", "\"straggler_ratio\"",
        "\"bytes_read\":123"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RunReport, IntegritySectionAlwaysPresentWithRecoveryCounter) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = run_report_json(r);
  // Always-present schema: the integrity section and the survived-read
  // counter appear (all zero) even on runs with no chaos at all.
  for (const char* key :
       {"\"integrity\"", "\"verify_checksums\":false",
        "\"cells_checksummed\":0", "\"corruptions_injected\":0",
        "\"corruptions_detected\":0", "\"cells_repaired_copy\":0",
        "\"scrub_passes\":0", "\"read_errors_survived\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  r.recovery.read_errors_survived = 3;
  r.integrity.verify_checksums = true;
  r.integrity.corruptions_injected = 2;
  r.integrity.corruptions_detected = 2;
  r.integrity.cells_repaired_ec = 2;
  r.integrity.repairs.push_back(
      IntegrityRepairSpan{12.5, 1, "/work/ut_0.bin", 7, 4096, "ec", true});
  r.integrity.scrub_spans.push_back(ScrubPassSpan{30.0, 0.25, 1 << 20, 16, 2});
  const std::string populated = run_report_json(r);
  for (const char* key :
       {"\"read_errors_survived\":3", "\"verify_checksums\":true",
        "\"corruptions_injected\":2", "\"cells_repaired_ec\":2",
        "\"kind\":\"ec\"", "\"by_scrubber\":true", "\"scrubs\"",
        "\"cells_verified\":16"}) {
    EXPECT_NE(populated.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RunReport, ChromeTraceIntegrityLaneOnlyWhenActive) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  EXPECT_EQ(chrome_trace_json(r).find("\"name\":\"integrity\""),
            std::string::npos)
      << "no scrubs or repairs: no integrity lane";

  r.integrity.repairs.push_back(
      IntegrityRepairSpan{16.0, 1, "/work/ut_0.bin", 0, 4096, "copy", false});
  r.integrity.scrub_spans.push_back(ScrubPassSpan{15.5, 0.25, 1 << 20, 16, 1});
  const std::string trace = chrome_trace_json(r);
  EXPECT_NE(trace.find("\"name\":\"integrity\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"scrub pass\""), std::string::npos);
  EXPECT_NE(trace.find("\"repair copy /work/ut_0.bin\""), std::string::npos);
}

TEST(RunReport, ChromeTraceHasCompleteEventsAndNodeLanes) {
  RunReport r = two_slot_run();
  aggregate_run_report(&r);
  const std::string json = chrome_trace_json(r);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Metadata lanes for both nodes plus one complete event per attempt.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
  // Timestamps are run-relative microseconds: map start 15 s -> 15e6 us.
  EXPECT_NE(json.find("\"ts\":15000000"), std::string::npos);
}

TEST(RunReport, JobLanesAndMasterSpansExport) {
  RunReport r = two_slot_run();
  r.job_spans = {{"lu-level-0", 15.0, 17.0}, {"invert", 17.0, 20.0}};
  MasterSpan span;
  span.start = 14.0;
  span.end = 15.0;
  span.io.mults = 42;
  r.master_spans = {span};
  aggregate_run_report(&r);
  EXPECT_NEAR(r.master_seconds, 1.0, 1e-12);
  EXPECT_NEAR(r.busy_slot_seconds, 2.5, 1e-12);
  EXPECT_NEAR(r.cluster_utilization, 2.5 / (2 * 17.0), 1e-12);

  const std::string json = run_report_json(r);
  for (const char* key :
       {"\"busy_slot_seconds\"", "\"cluster_utilization\"", "\"job_spans\"",
        "\"master\"", "\"job\":\"invert\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  const std::string trace = chrome_trace_json(r);
  // One pseudo-process lane per job plus the master lane.
  EXPECT_NE(trace.find("\"name\":\"jobs\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"master\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"master work\""), std::string::npos);
}

TEST(RunReport, EscapesJobNames) {
  RunReport r;
  r.total_slots = 1;
  PhaseTrace p;
  p.job = "weird\"name";
  p.phase = "map";
  p.duration = 1.0;
  p.events = {event(0, 0, 0, 0, 0.0, 1.0)};
  r.phases.push_back(std::move(p));
  aggregate_run_report(&r);
  EXPECT_NE(run_report_json(r).find("weird\\\"name"), std::string::npos);
  EXPECT_NE(chrome_trace_json(r).find("weird\\\"name"), std::string::npos);
}

}  // namespace
}  // namespace mri
