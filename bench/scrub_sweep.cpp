// Silent-corruption chaos vs the block-integrity layer (PR 10): checksums
// on write, verify-on-read with read-repair, and the background scrubber,
// exercised on the actual inversion pipeline.
//
// A real Hadoop cluster checksums every block because disks lie: a read
// can succeed with rotten bytes. This bench injects deterministic
// bit-rot (kCorruptBlock chaos events) into mid-run block copies and
// measures the blast radius with the defenses off and on:
//
//   clean        — no corruption, verification off: every integrity counter
//                  must be zero (the no-chaos path pays nothing), and two
//                  same-seed runs must produce bit-identical reports.
//   verify-clean — no corruption, verification on: checksums are computed
//                  and verified, nothing is detected or repaired, and the
//                  inverse still lands at machine epsilon.
//   blind        — corruption with verification off: reads silently succeed
//                  with flipped bits and the residual blows past 1e-3.
//   repair       — the same corruption with verification on: every read of
//                  a rotten copy is detected and read-repaired in place,
//                  the residual stays at machine epsilon, and two same-seed
//                  runs stay bit-identical.
//   scrub        — verification plus a background scrubber: every injected
//                  corruption is detected (scrub passes sweep the copies
//                  reads never touch) and repaired from a replica.
//   ec-scrub     — the same under RS(6,3) striping: repairs decode the bad
//                  cell from the surviving stripe (cells_repaired_ec).
//   spin-scrub   — the spin engine's memory tier: corrupted single-copy
//                  partitions are rebuilt by lineage recomputation
//                  (cells_repaired_lineage).
//
// Emits BENCH_pr10.json (--out PATH). --probe runs the same scenarios on a
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

struct ScrubConfig {
  const char* name;
  bool verify = false;
  double scrub_interval_fraction = 0.0;  // of the clean run, 0 = no scrubber
  bool ec = false;                       // RS(6,3) instead of replication-3
  bool spin = false;                     // in-memory engine, lineage repair
  std::vector<ChaosEvent> events;
};

struct ScrubRun {
  bool completed = false;
  std::string error;
  double sim_seconds = 0.0;
  double paper_hours = 0.0;
  double residual = 0.0;
  int blocks_corrupted = 0;  // chaos-side injection count
  IntegrityReport integrity;
  std::string report_json;
};

std::int64_t repaired_total(const IntegrityReport& i) {
  return i.cells_repaired_copy + i.cells_repaired_ec +
         i.cells_repaired_lineage;
}

/// One inversion on a fresh cluster/DFS under the given integrity config.
ScrubRun run_config(const ScaledSetup& s, int nodes, const ScrubConfig& spec,
                    std::uint64_t matrix_seed, double clean_seconds) {
  MetricsRegistry metrics;
  Cluster cluster(nodes, s.model);
  dfs::DfsConfig dfs_config;
  if (spec.ec) {
    dfs_config.storage_policy = dfs::StoragePolicy::kErasureCoded;
    dfs_config.ec.k = 6;
    dfs_config.ec.m = 3;
  }
  dfs_config.verify_checksums = spec.verify;
  if (spec.scrub_interval_fraction > 0.0) {
    dfs_config.scrub_interval_seconds =
        spec.scrub_interval_fraction * clean_seconds;
  }
  dfs::Dfs fs(nodes, dfs_config, &metrics);
  ThreadPool pool(4);

  ChaosEngine chaos;
  for (const ChaosEvent& event : spec.events) chaos.add_event(event);
  fs.bind_chaos(&chaos, s.model.network_bandwidth, &s.model);

  core::MapReduceInverter inverter(&cluster, &fs, &pool, nullptr, &metrics,
                                   &chaos);
  core::InversionOptions opts;
  opts.nb = s.nb;
  if (spec.spin) {
    opts.engine = core::EngineKind::kSpin;
    opts.cache_capacity_bytes = 256ull << 20;
  }
  const Matrix a = random_matrix(s.n, matrix_seed);

  ScrubRun run;
  try {
    core::MapReduceInverter::Result result = inverter.invert(a, opts);
    run.completed = true;
    run.sim_seconds = result.report.sim_seconds;
    run.paper_hours = to_paper_seconds(run.sim_seconds, s.scale) / 3600.0;
    run.residual = inversion_residual(a, result.inverse);
    const RunReport report = mr::build_run_report(
        result.jobs, cluster, &metrics, result.master_spans, &chaos,
        result.engine_active ? &result.engine_stats : nullptr, &fs);
    run.integrity = report.integrity;
    run.report_json = run_report_json(report);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.blocks_corrupted = chaos.stats().blocks_corrupted;
  return run;
}

/// Explicit --corrupt-block-style events: primary copies of the largest
/// blocks on a few nodes, early enough that the data is still re-read.
std::vector<ChaosEvent> explicit_corruptions(double clean_seconds,
                                             int nodes) {
  std::vector<ChaosEvent> events;
  const double fractions[] = {0.15, 0.30, 0.45};
  int node = 1;
  for (double f : fractions) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kCorruptBlock;
    e.at = f * clean_seconds;
    e.node = node % nodes;
    e.salt = 0;  // pick the node's largest primary copy
    events.push_back(e);
    node += 2;
  }
  return events;
}

/// Bit-rot-style salted events for the spin scenario: the salt picks the
/// victim pseudo-randomly among the node's blocks, so with a handful of
/// events some land on memory-tier partitions (lineage repair territory).
std::vector<ChaosEvent> salted_corruptions(double clean_seconds, int nodes) {
  std::vector<ChaosEvent> events;
  for (int i = 0; i < 8; ++i) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kCorruptBlock;
    e.at = (0.20 + 0.07 * i) * clean_seconds;
    e.node = 1 + (i % (nodes - 1));
    e.salt = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1) | 1;
    events.push_back(e);
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 12);  // RS(6,3) needs 9 cells
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr10.json");
  const double residual_bound = 1e-8;
  const double blind_bound = 1e-3;

  print_header("silent corruption vs checksums, read-repair and the "
               "scrubber",
               "end-to-end data integrity");

  const ScaledSetup setup = scaled_setup(probe ? kM5 : kM4, scale);
  std::printf("%s at 1/%.0f scale: order %lld, nb %lld, %d nodes%s\n\n",
              probe ? "M5" : "M4", scale, static_cast<long long>(setup.n),
              static_cast<long long>(setup.nb), nodes,
              probe ? " (probe mode)" : "");

  // The clean run anchors corruption times and the scrub interval.
  ScrubConfig clean_spec{"clean", false, 0.0, false, false, {}};
  const ScrubRun clean = run_config(setup, nodes, clean_spec, seed, 0.0);
  MRI_REQUIRE(clean.completed, "clean run failed: " << clean.error);
  const std::vector<ChaosEvent> corruptions =
      explicit_corruptions(clean.sim_seconds, nodes);
  const std::vector<ChaosEvent> salted =
      salted_corruptions(clean.sim_seconds, nodes);

  std::vector<ScrubConfig> configs;
  configs.push_back({"verify-clean", /*verify=*/true, 0.0, false, false, {}});
  configs.push_back({"blind", /*verify=*/false, 0.0, false, false,
                     corruptions});
  configs.push_back({"repair", /*verify=*/true, 0.0, false, false,
                     corruptions});
  configs.push_back({"scrub", /*verify=*/true, /*interval=*/0.25, false,
                     false, corruptions});
  configs.push_back({"ec-scrub", /*verify=*/true, /*interval=*/0.25,
                     /*ec=*/true, false, corruptions});
  configs.push_back({"spin-scrub", /*verify=*/true, /*interval=*/0.25, false,
                     /*spin=*/true, salted});

  struct Point {
    ScrubConfig spec;
    ScrubRun run;
  };
  std::vector<Point> points;
  points.push_back({clean_spec, clean});

  std::printf("%-12s %10s %9s %9s %9s %22s %7s %10s\n", "config", "hours",
              "injected", "detected", "repaired", "(copy/ec/lineage)",
              "scrubs", "residual");
  const auto print_row = [](const Point& p) {
    const IntegrityReport& i = p.run.integrity;
    std::printf("%-12s %10.4f %9lld %9lld %9lld %10lld/%4lld/%4lld %7lld "
                "%10.2e\n",
                p.spec.name, p.run.paper_hours,
                static_cast<long long>(i.corruptions_injected),
                static_cast<long long>(i.corruptions_detected),
                static_cast<long long>(repaired_total(i)),
                static_cast<long long>(i.cells_repaired_copy),
                static_cast<long long>(i.cells_repaired_ec),
                static_cast<long long>(i.cells_repaired_lineage),
                static_cast<long long>(i.scrub_passes), p.run.residual);
  };
  print_row(points.front());
  for (const ScrubConfig& spec : configs) {
    Point p;
    p.spec = spec;
    p.run = run_config(setup, nodes, spec, seed, clean.sim_seconds);
    MRI_REQUIRE(p.run.completed,
                spec.name << " run failed: " << p.run.error);
    print_row(p);
    points.push_back(std::move(p));
  }

  const auto find = [&](const char* name) -> const Point& {
    for (const Point& p : points) {
      if (std::strcmp(p.spec.name, name) == 0) return p;
    }
    MRI_REQUIRE(false, "no config named " << name);
    std::abort();
  };
  const Point& verify_clean = find("verify-clean");
  const Point& blind = find("blind");
  const Point& repair = find("repair");
  const Point& scrub = find("scrub");
  const Point& ec_scrub = find("ec-scrub");
  const Point& spin_scrub = find("spin-scrub");

  // ---- assertions ---------------------------------------------------------
  // clean: the integrity layer must cost literally nothing when off.
  const IntegrityReport& ci = clean.integrity;
  const bool clean_zero = !ci.verify_checksums && ci.cells_checksummed == 0 &&
                          ci.cells_verified == 0 && ci.bytes_verified == 0 &&
                          ci.corruptions_injected == 0 &&
                          ci.corruptions_detected == 0 &&
                          repaired_total(ci) == 0 &&
                          ci.cells_quarantined == 0 && ci.scrub_passes == 0 &&
                          ci.repairs.empty() && ci.scrub_spans.empty() &&
                          clean.residual < residual_bound;

  // clean determinism: a second identical run must be bit-identical.
  const ScrubRun clean2 = run_config(setup, nodes, clean_spec, seed, 0.0);
  const bool clean_deterministic =
      clean2.completed && clean2.report_json == clean.report_json;

  // verify-clean: checksums computed and verified, nothing found.
  const IntegrityReport& vi = verify_clean.run.integrity;
  const bool verify_clean_ok =
      vi.verify_checksums && vi.cells_checksummed > 0 &&
      vi.cells_verified > 0 && vi.corruptions_injected == 0 &&
      vi.corruptions_detected == 0 && repaired_total(vi) == 0 &&
      verify_clean.run.residual < residual_bound;

  // blind: corruption lands, nothing notices, the inverse is garbage.
  const IntegrityReport& bi = blind.run.integrity;
  const bool blind_ok = bi.corruptions_injected >= 1 &&
                        bi.corruptions_detected == 0 &&
                        repaired_total(bi) == 0 &&
                        blind.run.residual > blind_bound;

  // repair: verification turns the same corruption into epsilon residual.
  const IntegrityReport& ri = repair.run.integrity;
  const bool repair_ok = ri.corruptions_injected >= 1 &&
                         ri.corruptions_detected >= 1 &&
                         ri.corruptions_detected == repaired_total(ri) &&
                         ri.corruptions_detected <= ri.corruptions_injected &&
                         repair.run.residual < residual_bound;

  // repair determinism: a second identical corrupted run, bit for bit.
  const ScrubRun repair2 =
      run_config(setup, nodes, repair.spec, seed, clean.sim_seconds);
  const bool repair_deterministic =
      repair2.completed && repair2.report_json == repair.run.report_json;

  // scrub: the scrubber closes the gap — 100% of corruptions detected and
  // repaired whether or not a read ever touched the rotten copy.
  const IntegrityReport& si = scrub.run.integrity;
  const bool scrub_ok = si.scrub_passes >= 1 &&
                        si.corruptions_injected >= 1 &&
                        si.corruptions_detected == si.corruptions_injected &&
                        repaired_total(si) == si.corruptions_detected &&
                        scrub.run.residual < residual_bound;

  // ec-scrub: at least one repair decodes the cell from the stripe.
  const IntegrityReport& ei = ec_scrub.run.integrity;
  const bool ec_ok = ei.cells_repaired_ec >= 1 &&
                     ei.corruptions_detected == ei.corruptions_injected &&
                     repaired_total(ei) == ei.corruptions_detected &&
                     ec_scrub.run.residual < residual_bound;

  // spin-scrub: at least one corrupted memory-tier partition is rebuilt by
  // lineage recomputation.
  const IntegrityReport& pi = spin_scrub.run.integrity;
  const bool spin_ok = pi.cells_repaired_lineage >= 1 &&
                       repaired_total(pi) == pi.corruptions_detected &&
                       spin_scrub.run.residual < residual_bound;

  std::printf("\nclean counters all zero : %s\n", clean_zero ? "yes" : "NO");
  std::printf("clean deterministic     : %s\n",
              clean_deterministic ? "yes" : "NO");
  std::printf("verify-clean harmless   : %s\n",
              verify_clean_ok ? "yes" : "NO");
  std::printf("blind residual > %.0e  : %s (%.2e)\n", blind_bound,
              blind_ok ? "yes" : "NO", blind.run.residual);
  std::printf("repair to epsilon       : %s (%.2e)\n",
              repair_ok ? "yes" : "NO", repair.run.residual);
  std::printf("repair deterministic    : %s\n",
              repair_deterministic ? "yes" : "NO");
  std::printf("scrubber catches 100%%   : %s (%lld/%lld)\n",
              scrub_ok ? "yes" : "NO",
              static_cast<long long>(si.corruptions_detected),
              static_cast<long long>(si.corruptions_injected));
  std::printf("ec decode repair        : %s (%lld cell(s))\n",
              ec_ok ? "yes" : "NO",
              static_cast<long long>(ei.cells_repaired_ec));
  std::printf("lineage recompute repair: %s (%lld partition(s))\n",
              spin_ok ? "yes" : "NO",
              static_cast<long long>(pi.cells_repaired_lineage));

  std::ostringstream json;
  json.precision(17);
  json << "{\"config\":{\"matrix\":\"" << (probe ? "M5" : "M4")
       << "\",\"order\":" << setup.n << ",\"nb\":" << setup.nb
       << ",\"nodes\":" << nodes << ",\"scale\":" << scale
       << ",\"seed\":" << seed << ",\"probe\":" << (probe ? "true" : "false")
       << "},\"runs\":[";
  bool first = true;
  for (const Point& p : points) {
    if (!first) json << ',';
    first = false;
    const IntegrityReport& i = p.run.integrity;
    json << "{\"config\":\"" << p.spec.name
         << "\",\"completed\":" << (p.run.completed ? "true" : "false");
    if (p.run.completed) {
      json << ",\"hours\":" << p.run.paper_hours
           << ",\"residual\":" << p.run.residual
           << ",\"verify_checksums\":"
           << (i.verify_checksums ? "true" : "false")
           << ",\"scrub_interval_seconds\":" << i.scrub_interval_seconds
           << ",\"cells_checksummed\":" << i.cells_checksummed
           << ",\"cells_verified\":" << i.cells_verified
           << ",\"corruptions_injected\":" << i.corruptions_injected
           << ",\"corruptions_detected\":" << i.corruptions_detected
           << ",\"cells_repaired_copy\":" << i.cells_repaired_copy
           << ",\"cells_repaired_ec\":" << i.cells_repaired_ec
           << ",\"cells_repaired_lineage\":" << i.cells_repaired_lineage
           << ",\"scrub_passes\":" << i.scrub_passes
           << ",\"scrub_bytes_scanned\":" << i.scrub_bytes_scanned
           << ",\"scrub_seconds\":" << i.scrub_seconds;
    } else {
      json << ",\"error\":\"" << json_escape(p.run.error.substr(0, 120))
           << "\"";
    }
    json << "}";
  }
  json << "],\"asserts\":{\"clean_zero\":" << (clean_zero ? "true" : "false")
       << ",\"clean_deterministic\":"
       << (clean_deterministic ? "true" : "false")
       << ",\"verify_clean_ok\":" << (verify_clean_ok ? "true" : "false")
       << ",\"blind_ok\":" << (blind_ok ? "true" : "false")
       << ",\"repair_ok\":" << (repair_ok ? "true" : "false")
       << ",\"repair_deterministic\":"
       << (repair_deterministic ? "true" : "false")
       << ",\"scrub_ok\":" << (scrub_ok ? "true" : "false")
       << ",\"ec_ok\":" << (ec_ok ? "true" : "false")
       << ",\"spin_ok\":" << (spin_ok ? "true" : "false")
       << "},\"blind_bound\":" << blind_bound
       << ",\"residual_bound\":" << residual_bound << "}";

  std::ofstream f(out);
  MRI_REQUIRE(f.good(), "cannot open output file: " << out);
  f << json.str() << '\n';
  std::printf("results written to %s\n", out.c_str());

  return clean_zero && clean_deterministic && verify_clean_ok && blind_ok &&
                 repair_ok && repair_deterministic && scrub_ok && ec_ok &&
                 spin_ok
             ? 0
             : 1;
}
