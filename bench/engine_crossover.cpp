// Three-way engine crossover (ISSUE 7 tentpole deliverable): the Fig-8
// comparison re-run with the SPIN-style in-memory engine as a third column.
//
//   crossover — for each paper matrix, the same inversion on (a) the
//               Hadoop-style disk-tier pipeline, (b) the SPIN-style engine
//               (block cache + pipeline fusion), (c) the ScaLAPACK
//               baseline. Asserts the in-memory engine beats replicated
//               disk (speedup > 1) and that cache hits were actually taken
//               (fusion happened, not just a tier rename).
//   chaos     — one node killed mid-run, Hadoop-style vs SPIN-style. The
//               Hadoop path recovers by task re-execution + DFS
//               re-replication; the SPIN path must recover its memory-tier
//               partitions by lineage recomputation waves with NO
//               UnrecoverableBlock, and still meet the residual bound.
//   spill     — SPIN run with a deliberately tiny per-node cache: LRU
//               eviction must spill to disk (bytes_spilled > 0) and the
//               answer must stay correct.
//   deterministic — two same-seed SPIN chaos runs must produce
//               bit-identical run reports (cache epochs and eviction order
//               are functions of the job sequence, not thread timing).
//
// Emits BENCH_pr7.json (--out PATH). --probe shrinks the sweep for CI.
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "sim/chaos.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct EngineRun {
  bool completed = false;
  std::string error;  // empty when completed
  double sim_seconds = 0.0;
  double paper_hours = 0.0;
  double residual = 0.0;
  int tasks_recomputed = 0;
  EngineReport engine_stats;  // zero for disk-tier runs
  bool engine_active = false;
  RecoveryStats chaos_stats;
  std::vector<mr::JobResult> jobs;
  std::string report_json;  // run-report JSON (determinism check)
};

/// One inversion on a fresh cluster/DFS (and chaos engine when events or a
/// sampling config are given). `spin` selects the in-memory engine.
EngineRun run_engine(const ScaledSetup& s, int nodes,
                     std::uint64_t matrix_seed, bool spin,
                     std::uint64_t cache_capacity_bytes,
                     const std::vector<ChaosEvent>& events, bool verify) {
  MetricsRegistry metrics;
  Cluster cluster(nodes, s.model);
  dfs::Dfs fs(nodes, dfs::DfsConfig{}, &metrics);
  ThreadPool pool(4);

  ChaosOptions chaos_options;
  chaos_options.seed = matrix_seed;
  ChaosEngine chaos(chaos_options);
  const bool with_chaos = !events.empty();
  for (const ChaosEvent& event : events) chaos.add_event(event);
  if (with_chaos) fs.bind_chaos(&chaos, s.model.network_bandwidth);

  core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                   with_chaos ? &chaos : nullptr);
  core::InversionOptions opts;
  opts.nb = s.nb;
  opts.engine = spin ? core::EngineKind::kSpin : core::EngineKind::kHadoop;
  opts.cache_capacity_bytes = cache_capacity_bytes;
  const Matrix a = random_matrix(s.n, matrix_seed);

  EngineRun run;
  try {
    core::MapReduceInverter::Result result = inverter.invert(a, opts);
    run.completed = true;
    run.sim_seconds = result.report.sim_seconds;
    run.paper_hours = to_paper_seconds(run.sim_seconds, s.scale) / 3600.0;
    run.residual = verify ? inversion_residual(a, result.inverse) : 0.0;
    run.jobs = result.jobs;
    run.engine_active = result.engine_active;
    run.engine_stats = result.engine_stats;
    for (const mr::JobResult& job : run.jobs) {
      run.tasks_recomputed += job.tasks_recomputed;
    }
    run.report_json = run_report_json(mr::build_run_report(
        result.jobs, cluster, &metrics, result.master_spans,
        with_chaos ? &chaos : nullptr,
        result.engine_active ? &result.engine_stats : nullptr));
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.chaos_stats = chaos.stats();
  return run;
}

/// Kill time inside a reduce window ~`fraction` through the clean run, so
/// the dead node holds completed intermediates of earlier jobs.
double pick_kill_time(const EngineRun& clean, double fraction) {
  const double target = fraction * clean.sim_seconds;
  double best = -1.0;
  double best_distance = 0.0;
  for (const mr::JobResult& job : clean.jobs) {
    if (job.reduce_phase_seconds <= 0.0) continue;
    const double launch = job.sim_seconds - job.map_phase_seconds -
                          job.reduce_phase_seconds - job.recovery_seconds -
                          job.lineage_stall_seconds;
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
  const int nodes = cli.get_int("nodes", 4);
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr7.json");
  const double residual_bound = 1e-8;  // §7.2: double precision stays ~1e-12
  const std::uint64_t cache_default = 256ull << 20;

  print_header("engine crossover: Hadoop-style vs SPIN-style vs ScaLAPACK",
               "Fig. 8 + §8 'implement on Spark'");

  // ---- 1. clean three-way crossover ---------------------------------------
  const std::vector<PaperMatrix> matrices =
      probe ? std::vector<PaperMatrix>{kM5}
            : std::vector<PaperMatrix>{kM5, kM1, kM2};
  struct Point {
    PaperMatrix m;
    ScaledSetup setup;
    EngineRun hadoop;
    EngineRun spin;
    ScalRun scalapack;
  };
  std::vector<Point> points;
  bool crossover_ok = true;
  bool fusion_ok = true;
  std::printf("clean runs at 1/%.0f scale on %d nodes "
              "(paper-hours = sim x S^3):\n", scale, nodes);
  for (const PaperMatrix& m : matrices) {
    Point p;
    p.m = m;
    p.setup = scaled_setup(m, scale);
    p.hadoop = run_engine(p.setup, nodes, seed, /*spin=*/false, cache_default,
                          {}, true);
    p.spin = run_engine(p.setup, nodes, seed, /*spin=*/true, cache_default,
                        {}, true);
    p.scalapack = run_scalapack(p.setup, nodes, seed);
    MRI_REQUIRE(p.hadoop.completed && p.spin.completed,
                m.name << " clean run failed: hadoop '" << p.hadoop.error
                       << "', spin '" << p.spin.error << "'");
    const double speedup = p.hadoop.paper_hours / p.spin.paper_hours;
    std::printf("  %-3s (order %5lld): hadoop %7.2f h | spin %7.2f h "
                "(%.2fx, %llu cache hits) | scalapack %7.2f h\n",
                m.name, static_cast<long long>(p.setup.n),
                p.hadoop.paper_hours, p.spin.paper_hours, speedup,
                static_cast<unsigned long long>(p.spin.engine_stats.cache_hits),
                p.scalapack.paper_seconds / 3600.0);
    if (speedup <= 1.0) crossover_ok = false;
    if (!p.spin.engine_active || p.spin.engine_stats.cache_hits == 0) {
      fusion_ok = false;
    }
    if (p.hadoop.residual >= residual_bound ||
        p.spin.residual >= residual_bound) {
      crossover_ok = false;
    }
    points.push_back(std::move(p));
  }

  // ---- 2. chaos: one node kill, Hadoop recovery vs lineage recovery -------
  const Point& base = points.front();
  const int kill_node = nodes - 1;
  const double kill_at_hadoop = pick_kill_time(base.hadoop, 0.4);
  const double kill_at_spin = pick_kill_time(base.spin, 0.4);
  const std::vector<ChaosEvent> hadoop_events = {
      {ChaosEventKind::kKillNode, kill_at_hadoop, kill_node, 1.0}};
  const std::vector<ChaosEvent> spin_events = {
      {ChaosEventKind::kKillNode, kill_at_spin, kill_node, 1.0}};

  const EngineRun hadoop_kill = run_engine(base.setup, nodes, seed, false,
                                           cache_default, hadoop_events, true);
  const EngineRun spin_kill = run_engine(base.setup, nodes, seed, true,
                                         cache_default, spin_events, true);
  MRI_REQUIRE(hadoop_kill.completed,
              "hadoop kill run did not recover: " << hadoop_kill.error);

  const bool lineage_ok =
      spin_kill.completed && spin_kill.residual < residual_bound &&
      spin_kill.chaos_stats.partitions_recomputed >= 1 &&
      spin_kill.chaos_stats.lineage_waves >= 1 &&
      spin_kill.error.find("nrecoverable") == std::string::npos;
  std::printf("\nnode %d killed mid-run (%s):\n", kill_node, base.m.name);
  std::printf("  hadoop: %.2f h (%.2fx clean), %d task(s) re-executed, "
              "%llu bytes re-replicated\n",
              hadoop_kill.paper_hours,
              hadoop_kill.paper_hours / base.hadoop.paper_hours,
              hadoop_kill.tasks_recomputed,
              static_cast<unsigned long long>(
                  hadoop_kill.chaos_stats.re_replicated_bytes));
  if (spin_kill.completed) {
    std::printf("  spin  : %.2f h (%.2fx clean), %d partition(s) rebuilt in "
                "%d lineage wave(s), residual %.2e\n",
                spin_kill.paper_hours,
                spin_kill.paper_hours / base.spin.paper_hours,
                spin_kill.chaos_stats.partitions_recomputed,
                spin_kill.chaos_stats.lineage_waves, spin_kill.residual);
  } else {
    std::printf("  spin  : DID NOT RECOVER (%s)\n",
                spin_kill.error.substr(0, 100).c_str());
  }

  // ---- 3. spill: tiny cache forces LRU eviction to disk -------------------
  const EngineRun spill_run = run_engine(base.setup, nodes, seed, true,
                                         /*cache=*/16ull << 10, {}, true);
  const bool spill_ok = spill_run.completed &&
                        spill_run.residual < residual_bound &&
                        spill_run.engine_stats.cache_evictions > 0 &&
                        spill_run.engine_stats.spilled_bytes > 0;
  std::printf("\n16 KB/node cache: %llu eviction(s), %llu bytes spilled, "
              "residual %.2e -> %s\n",
              static_cast<unsigned long long>(
                  spill_run.engine_stats.cache_evictions),
              static_cast<unsigned long long>(
                  spill_run.engine_stats.spilled_bytes),
              spill_run.residual, spill_ok ? "ok" : "FAILED");

  // ---- 4. determinism: same-seed spin chaos reports bit-identical ---------
  const EngineRun spin_kill2 = run_engine(base.setup, nodes, seed, true,
                                          cache_default, spin_events, true);
  const bool deterministic = spin_kill2.completed && spin_kill.completed &&
                             spin_kill2.report_json == spin_kill.report_json;
  std::printf("deterministic: %s (same-seed spin chaos reports %s)\n",
              deterministic ? "yes" : "NO",
              deterministic ? "bit-identical" : "DIFFER");

  std::printf("\nspin beats hadoop clean : %s\n", crossover_ok ? "yes" : "NO");
  std::printf("pipeline fusion active  : %s\n", fusion_ok ? "yes" : "NO");
  std::printf("lineage recovery        : %s\n", lineage_ok ? "yes" : "NO");

  std::ostringstream json;
  json.precision(17);
  json << "{\"config\":{\"nodes\":" << nodes << ",\"scale\":" << scale
       << ",\"seed\":" << seed << ",\"probe\":" << (probe ? "true" : "false")
       << ",\"residual_bound\":" << residual_bound << "},\"crossover\":[";
  bool first = true;
  for (const Point& p : points) {
    if (!first) json << ',';
    first = false;
    json << "{\"matrix\":\"" << p.m.name << "\",\"order\":" << p.setup.n
         << ",\"hadoop_hours\":" << p.hadoop.paper_hours
         << ",\"spin_hours\":" << p.spin.paper_hours
         << ",\"scalapack_hours\":" << p.scalapack.paper_seconds / 3600.0
         << ",\"speedup_spin_vs_hadoop\":"
         << p.hadoop.paper_hours / p.spin.paper_hours
         << ",\"cache_hits\":" << p.spin.engine_stats.cache_hits
         << ",\"cache_insertions\":" << p.spin.engine_stats.cache_insertions
         << ",\"bytes_spilled\":" << p.spin.engine_stats.spilled_bytes
         << ",\"residual_hadoop\":" << p.hadoop.residual
         << ",\"residual_spin\":" << p.spin.residual
         << ",\"residual_scalapack\":" << p.scalapack.residual << '}';
  }
  json << "],\"chaos\":{\"kill_node\":" << kill_node
       << ",\"hadoop\":{\"kill_at\":" << kill_at_hadoop
       << ",\"hours\":" << hadoop_kill.paper_hours
       << ",\"stretch\":" << hadoop_kill.paper_hours / base.hadoop.paper_hours
       << ",\"tasks_recomputed\":" << hadoop_kill.tasks_recomputed
       << ",\"re_replicated_bytes\":"
       << hadoop_kill.chaos_stats.re_replicated_bytes
       << ",\"residual\":" << hadoop_kill.residual
       << "},\"spin\":{\"kill_at\":" << kill_at_spin
       << ",\"completed\":" << (spin_kill.completed ? "true" : "false")
       << ",\"hours\":" << spin_kill.paper_hours
       << ",\"stretch\":" << spin_kill.paper_hours / base.spin.paper_hours
       << ",\"partitions_recomputed\":"
       << spin_kill.chaos_stats.partitions_recomputed
       << ",\"lineage_waves\":" << spin_kill.chaos_stats.lineage_waves
       << ",\"lineage_recompute_seconds\":"
       << spin_kill.chaos_stats.lineage_recompute_seconds
       << ",\"lineage_recomputed_bytes\":"
       << spin_kill.chaos_stats.lineage_recomputed_bytes
       << ",\"residual\":" << spin_kill.residual
       << ",\"error\":\"" << json_escape(spin_kill.error.substr(0, 120))
       << "\"}},\"spill\":{\"cache_bytes_per_node\":" << (16ull << 10)
       << ",\"completed\":" << (spill_run.completed ? "true" : "false")
       << ",\"evictions\":" << spill_run.engine_stats.cache_evictions
       << ",\"bytes_spilled\":" << spill_run.engine_stats.spilled_bytes
       << ",\"residual\":" << spill_run.residual
       << "},\"deterministic\":" << (deterministic ? "true" : "false")
       << ",\"crossover_ok\":" << (crossover_ok ? "true" : "false")
       << ",\"fusion_ok\":" << (fusion_ok ? "true" : "false")
       << ",\"lineage_ok\":" << (lineage_ok ? "true" : "false")
       << ",\"spill_ok\":" << (spill_ok ? "true" : "false") << "}";

  std::ofstream f(out);
  MRI_REQUIRE(f.good(), "cannot open output file: " << out);
  f << json.str() << '\n';
  std::printf("results written to %s\n", out.c_str());

  return crossover_ok && fusion_ok && lineage_ok && spill_ok && deterministic
             ? 0
             : 1;
}
