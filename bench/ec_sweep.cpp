// Erasure-coded storage tier vs 3x replication under the PR 5 fault
// scenario: storage footprint, pipelined write traffic, and single-kill
// recovery cost, swept over the HDFS-EC stripe shapes.
//
// The paper runs on a Hadoop DFS with replication 3 — every committed block
// costs 3x its size on disk and 2x on the write pipeline. HDFS-EC-style
// Reed–Solomon stripes cut both: RS(k,m) stores (k+m)/k per byte and ships
// (k+m-1)/k cells over the pipeline, while still surviving any m losses
// (degraded reads decode from k survivors; node kills repair by
// reconstruction instead of re-replication). This bench quantifies that
// trade on the actual inversion pipeline:
//
//   policies — the same inversion under replication-3 and RS (3,2), (6,3),
//              (10,4): end-of-run logical/physical footprint and pipelined
//              redundancy bytes. Asserts RS(6,3) cuts physical storage
//              >= 1.8x and pipelined write bytes >= 1.3x vs replication-3.
//   kills    — per policy, the same single-kill scenario as fault_sweep
//              (a worker dies ~40% in): recovery stretch and repair totals
//              side by side — re-replicated bytes for replication,
//              reconstructed cells for EC.
//   hot cache — RS(6,3) plus a namenode hot-block cache for the repeatedly
//              re-read ut.bin factors: hit totals.
//   deterministic — two same-seed RS(6,3) kill runs must produce
//              bit-identical run reports.
//
// Emits BENCH_pr8.json (--out PATH). --probe runs the same scenarios on a
// small matrix for the CI smoke step.
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "sim/chaos.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct PolicySpec {
  const char* name;
  dfs::StoragePolicy policy;
  int k = 0;
  int m = 0;
};

struct EcRun {
  bool completed = false;
  std::string error;
  double sim_seconds = 0.0;
  double paper_hours = 0.0;
  double residual = 0.0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t physical_bytes = 0;
  std::uint64_t write_redundancy_bytes = 0;  // pipelined replica/cell bytes
  std::uint64_t parity_bytes = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t hot_cache_hits = 0;
  RecoveryStats stats;
  std::vector<mr::JobResult> jobs;
  std::string report_json;
};

/// One inversion on a fresh cluster/DFS under the given storage policy.
EcRun run_policy(const ScaledSetup& s, int nodes, const PolicySpec& spec,
                 std::uint64_t matrix_seed,
                 const std::vector<ChaosEvent>& events, bool verify,
                 std::uint64_t hot_cache_bytes = 0) {
  MetricsRegistry metrics;
  Cluster cluster(nodes, s.model);
  dfs::DfsConfig dfs_config;
  dfs_config.storage_policy = spec.policy;
  if (spec.policy == dfs::StoragePolicy::kErasureCoded) {
    dfs_config.ec.k = spec.k;
    dfs_config.ec.m = spec.m;
  }
  dfs_config.hot_cache_bytes = hot_cache_bytes;
  dfs::Dfs fs(nodes, dfs_config, &metrics);
  ThreadPool pool(4);

  ChaosEngine chaos;
  for (const ChaosEvent& event : events) chaos.add_event(event);
  fs.bind_chaos(&chaos, s.model.network_bandwidth, &s.model);

  core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                   &chaos);
  core::InversionOptions opts;
  opts.nb = s.nb;
  const Matrix a = random_matrix(s.n, matrix_seed);

  EcRun run;
  try {
    core::MapReduceInverter::Result result = inverter.invert(a, opts);
    run.completed = true;
    run.sim_seconds = result.report.sim_seconds;
    run.paper_hours = to_paper_seconds(run.sim_seconds, s.scale) / 3600.0;
    run.residual = verify ? inversion_residual(a, result.inverse) : 0.0;
    run.jobs = result.jobs;
    const RunReport report = mr::build_run_report(
        result.jobs, cluster, &metrics, result.master_spans, &chaos, nullptr,
        &fs);
    run.logical_bytes = report.storage.logical_bytes;
    run.physical_bytes = report.storage.physical_bytes;
    run.write_redundancy_bytes = report.dfs_io.bytes_replicated;
    run.parity_bytes = report.storage.parity_bytes;
    run.degraded_reads = report.storage.degraded_reads;
    run.hot_cache_hits = report.storage.hot_cache_hits;
    run.report_json = run_report_json(report);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.stats = chaos.stats();
  return run;
}

/// Same reduce-window kill-time picker as fault_sweep: the dead node holds
/// completed map outputs, so recovery pays a recompute wave on top of the
/// storage repair this bench is about.
double pick_kill_time(const EcRun& clean, double fraction) {
  const double target = fraction * clean.sim_seconds;
  double best = -1.0;
  double best_distance = 0.0;
  for (const mr::JobResult& job : clean.jobs) {
    if (job.reduce_phase_seconds <= 0.0) continue;
    const double launch = job.sim_seconds - job.map_phase_seconds -
                          job.reduce_phase_seconds - job.recovery_seconds;
    const double reduce_start =
        job.start_seconds + launch + job.map_phase_seconds;
    const double at = reduce_start + 0.25 * job.reduce_phase_seconds;
    const double distance = std::abs(at - target);
    if (best < 0.0 || distance < best_distance) {
      best = at;
      best_distance = distance;
    }
  }
  MRI_REQUIRE(best >= 0.0, "clean run has no job with a reduce phase");
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 16);  // RS(10,4) needs 14 cells
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("chaos-seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr8.json");
  const double residual_bound = 1e-8;

  print_header("erasure-coded DFS storage vs replication: footprint, write "
               "traffic, recovery",
               "§7.4's storage layer");

  const ScaledSetup setup = scaled_setup(probe ? kM5 : kM4, scale);
  std::printf("%s at 1/%.0f scale: order %lld, nb %lld, %d nodes%s\n\n",
              probe ? "M5" : "M4", scale, static_cast<long long>(setup.n),
              static_cast<long long>(setup.nb), nodes,
              probe ? " (probe mode)" : "");

  const std::vector<PolicySpec> policies = {
      {"replicate-3", dfs::StoragePolicy::kReplicate, 0, 0},
      {"rs-3-2", dfs::StoragePolicy::kErasureCoded, 3, 2},
      {"rs-6-3", dfs::StoragePolicy::kErasureCoded, 6, 3},
      {"rs-10-4", dfs::StoragePolicy::kErasureCoded, 10, 4},
  };

  struct PolicyPoint {
    PolicySpec spec;
    EcRun clean;
    EcRun killed;
    double kill_at = 0.0;
    double stretch = 0.0;
  };
  std::vector<PolicyPoint> points;

  std::printf("%-12s %14s %14s %12s %12s %10s\n", "policy", "logical",
              "physical", "overhead", "write-redun", "residual");
  for (const PolicySpec& spec : policies) {
    PolicyPoint p;
    p.spec = spec;
    p.clean = run_policy(setup, nodes, spec, seed, {}, true);
    MRI_REQUIRE(p.clean.completed,
                spec.name << " clean run failed: " << p.clean.error);
    std::printf("%-12s %14llu %14llu %11.2fx %12llu %10.2e\n", spec.name,
                static_cast<unsigned long long>(p.clean.logical_bytes),
                static_cast<unsigned long long>(p.clean.physical_bytes),
                static_cast<double>(p.clean.physical_bytes) /
                    static_cast<double>(p.clean.logical_bytes),
                static_cast<unsigned long long>(
                    p.clean.write_redundancy_bytes),
                p.clean.residual);
    points.push_back(std::move(p));
  }

  // ---- headline ratios: RS(6,3) vs replication-3 --------------------------
  const PolicyPoint& repl = points[0];
  const PolicyPoint& rs63 = points[2];
  const double storage_ratio =
      static_cast<double>(repl.clean.physical_bytes) /
      static_cast<double>(rs63.clean.physical_bytes);
  const double write_ratio =
      static_cast<double>(repl.clean.write_redundancy_bytes) /
      static_cast<double>(rs63.clean.write_redundancy_bytes);
  std::printf("\nrs-6-3 vs replicate-3: %.2fx less physical storage, %.2fx "
              "fewer pipelined write bytes\n",
              storage_ratio, write_ratio);
  const bool storage_ok = storage_ratio >= 1.8;
  const bool write_ok = write_ratio >= 1.3;
  const bool logical_consistent = [&] {
    for (const PolicyPoint& p : points) {
      if (p.clean.logical_bytes != repl.clean.logical_bytes) return false;
    }
    return true;
  }();

  // ---- single-kill recovery, side by side ---------------------------------
  std::printf("\nsingle kill (node %d, ~40%% in):\n", nodes - 1);
  bool kills_ok = true;
  for (PolicyPoint& p : points) {
    p.kill_at = pick_kill_time(p.clean, 0.4);
    const std::vector<ChaosEvent> events = {
        {ChaosEventKind::kKillNode, p.kill_at, nodes - 1, 1.0}};
    p.killed = run_policy(setup, nodes, p.spec, seed, events, true);
    if (!p.killed.completed) {
      std::printf("  %-12s did not recover: %s\n", p.spec.name,
                  p.killed.error.substr(0, 60).c_str());
      kills_ok = false;
      continue;
    }
    p.stretch = p.killed.paper_hours / p.clean.paper_hours;
    std::printf("  %-12s %.2fx stretch, %.4f s repair (%llu B re-replicated, "
                "%d cell(s) reconstructed), residual %.2e\n",
                p.spec.name, p.stretch,
                p.killed.stats.re_replication_seconds,
                static_cast<unsigned long long>(
                    p.killed.stats.re_replicated_bytes),
                p.killed.stats.ec_cells_reconstructed, p.killed.residual);
    if (p.killed.residual >= residual_bound) kills_ok = false;
    // The repair mechanism must match the policy.
    const bool is_ec = p.spec.policy == dfs::StoragePolicy::kErasureCoded;
    if (is_ec && p.killed.stats.ec_cells_reconstructed == 0) kills_ok = false;
    if (!is_ec && p.killed.stats.re_replicated_bytes == 0) kills_ok = false;
  }

  // ---- determinism: two same-seed RS(6,3) kill runs -----------------------
  const std::vector<ChaosEvent> det_events = {
      {ChaosEventKind::kKillNode, rs63.kill_at, nodes - 1, 1.0}};
  const EcRun det =
      run_policy(setup, nodes, rs63.spec, seed, det_events, true);
  const bool deterministic =
      det.completed && det.report_json == rs63.killed.report_json;
  std::printf("\ndeterministic  : %s (same-seed rs-6-3 reports %s)\n",
              deterministic ? "yes" : "NO",
              deterministic ? "bit-identical" : "DIFFER");

  // ---- hot-block cache on the re-read ut.bin factors ----------------------
  const EcRun hot = run_policy(setup, nodes, rs63.spec, seed, {}, true,
                               /*hot_cache_bytes=*/64ull << 20);
  const bool hot_ok = hot.completed && hot.hot_cache_hits > 0;
  std::printf("hot cache      : %llu hit(s) on cached factors%s\n",
              static_cast<unsigned long long>(hot.hot_cache_hits),
              hot_ok ? "" : " (EXPECTED > 0)");

  std::printf("\nstorage ratio >= 1.8x   : %s (%.2fx)\n",
              storage_ok ? "yes" : "NO", storage_ratio);
  std::printf("write ratio >= 1.3x     : %s (%.2fx)\n",
              write_ok ? "yes" : "NO", write_ratio);
  std::printf("kills recovered         : %s\n", kills_ok ? "yes" : "NO");

  std::ostringstream json;
  json.precision(17);
  json << "{\"config\":{\"matrix\":\"" << (probe ? "M5" : "M4")
       << "\",\"order\":" << setup.n << ",\"nb\":" << setup.nb
       << ",\"nodes\":" << nodes << ",\"scale\":" << scale
       << ",\"seed\":" << seed << ",\"probe\":" << (probe ? "true" : "false")
       << "},\"policies\":[";
  bool first = true;
  for (const PolicyPoint& p : points) {
    if (!first) json << ',';
    first = false;
    json << "{\"policy\":\"" << p.spec.name << "\",\"ec_k\":" << p.spec.k
         << ",\"ec_m\":" << p.spec.m
         << ",\"clean\":{\"hours\":" << p.clean.paper_hours
         << ",\"residual\":" << p.clean.residual
         << ",\"logical_bytes\":" << p.clean.logical_bytes
         << ",\"physical_bytes\":" << p.clean.physical_bytes
         << ",\"write_redundancy_bytes\":" << p.clean.write_redundancy_bytes
         << ",\"parity_bytes\":" << p.clean.parity_bytes
         << "},\"killed\":{\"completed\":"
         << (p.killed.completed ? "true" : "false");
    if (p.killed.completed) {
      json << ",\"hours\":" << p.killed.paper_hours
           << ",\"stretch\":" << p.stretch
           << ",\"residual\":" << p.killed.residual
           << ",\"kill_at_sim_seconds\":" << p.kill_at
           << ",\"re_replicated_bytes\":" << p.killed.stats.re_replicated_bytes
           << ",\"ec_cells_reconstructed\":"
           << p.killed.stats.ec_cells_reconstructed
           << ",\"ec_reconstructed_bytes\":"
           << p.killed.stats.ec_reconstructed_bytes
           << ",\"repair_seconds\":"
           << p.killed.stats.re_replication_seconds
           << ",\"degraded_reads\":" << p.killed.degraded_reads;
    } else {
      json << ",\"error\":\"" << json_escape(p.killed.error.substr(0, 120))
           << "\"";
    }
    json << "}}";
  }
  json << "],\"headline\":{\"storage_ratio_rs63_vs_repl3\":" << storage_ratio
       << ",\"write_ratio_rs63_vs_repl3\":" << write_ratio
       << ",\"storage_ratio_ok\":" << (storage_ok ? "true" : "false")
       << ",\"write_ratio_ok\":" << (write_ok ? "true" : "false")
       << "},\"hot_cache\":{\"capacity_bytes\":" << (64ull << 20)
       << ",\"hits\":" << hot.hot_cache_hits
       << ",\"completed\":" << (hot.completed ? "true" : "false")
       << "},\"deterministic\":" << (deterministic ? "true" : "false")
       << ",\"residual_bound\":" << residual_bound << "}";

  std::ofstream f(out);
  MRI_REQUIRE(f.good(), "cannot open output file: " << out);
  f << json.str() << '\n';
  std::printf("results written to %s\n", out.c_str());

  return storage_ok && write_ok && logical_consistent && kills_ok &&
                 deterministic && hot_ok
             ? 0
             : 1;
}
