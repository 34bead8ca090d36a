// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out spans.json]
//
// Runs one workload against the libraries' public APIs in this process and
// measures both clocks: host wall-clock (what CLI and library users wait
// for) and simulated time (what the paper's claims rest on). Every output
// is checked: inverses by the benchmark's own residual oracle (check.hpp),
// simulated outputs and counts by a determinism cross-check across every
// operation of the run, and each workload by guards that it still exercises
// the layer it exists for. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The traced run also writes its spans to --trace-out.
// README.md in this directory is the metric catalogue.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "core/inverter.hpp"
#include "layers.hpp"
#include "linalg/kernels/kernel.hpp"
#include "mapreduce/trace_export.hpp"
#include "matrix/generate.hpp"
#include "net/topology.hpp"
#include "service/loadgen.hpp"
#include "service/service.hpp"
#include "sim/chaos.hpp"
#include "sim/run_report.hpp"
#include "spans.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mri::Index;
using mri::Matrix;
using mri::Stopwatch;

// One pool thread, not the CLI's four: on a host whose four cores other
// processes share, a four-thread run mostly measures how many cores it got
// (two busy neighbours slowed invert-2048 by half), while one thread kept
// within 5%. The library still runs every task through the pool.
constexpr int kPoolThreads = 1;
// Set-up repeats until both bounds are met, so even a sub-millisecond
// set-up yields a steady median.
constexpr int kSetupMinRepeats = 21;
constexpr double kSetupMinSeconds = 0.25;
constexpr int kMinOps = 3;

// ---------------------------------------------------------------- workloads

enum class Kind { kSingle, kService };

struct Workload {
  const char* name;
  Kind kind;
  Index n;  // matrix order (service: the largest tenant order)
  Index nb;
  int nodes;
  bool racked = false;  // 3 racks, 4:1 oversubscription, rack-aware
  bool erasure_coded = false;  // RS(6,3) instead of replicate-3
  bool verify_checksums = false;
  double scrub_interval = 0.0;
  bool spin = false;
  std::uint64_t cache_bytes = 0;  // spin engine cache per node
  int kill_node = -1;
  double kill_at = 0.0;
};

const Workload kWorkloads[] = {
    {.name = "invert-2048", .kind = Kind::kSingle, .n = 2048, .nb = 64,
     .nodes = 8},
    {.name = "storage-chaos", .kind = Kind::kSingle, .n = 768, .nb = 16,
     .nodes = 12, .racked = true, .erasure_coded = true,
     .verify_checksums = true, .scrub_interval = 60.0, .kill_node = 5,
     .kill_at = 40.0},
    {.name = "service-poisson", .kind = Kind::kService, .n = 256, .nb = 16,
     .nodes = 8},
    {.name = "spin-spill", .kind = Kind::kSingle, .n = 1536, .nb = 32,
     .nodes = 8, .spin = true, .cache_bytes = 1ull << 20, .kill_node = 3,
     .kill_at = 60.0},
};

/// service-poisson tenants: weights 2:1:1, one order each, Poisson arrivals
/// over a common window of kServiceWindow simulated seconds.
struct TenantSpec {
  const char* name;
  int weight;
  int requests;
  Index order;
  double deadline_seconds;
};
const TenantSpec kTenants[] = {
    {"gold", 2, 240, 256, 1500.0},
    {"silver", 1, 120, 192, 1500.0},
    {"bronze", 1, 120, 128, 1500.0},
};
constexpr double kServiceWindow = 160000.0;
constexpr int kServiceSlots = 4;

/// The service load: generate_load's per-tenant Poisson streams, each
/// conditioned on its last arrival landing at the window's end (a Poisson
/// process given its N-th arrival time has its earlier arrivals distributed
/// as uniform order statistics), so the offered load is the same for every
/// seed and only the arrival pattern varies.
std::vector<mri::service::InversionRequest> service_load(std::uint64_t seed) {
  mri::service::LoadGenOptions load;
  load.seed = seed;
  for (const TenantSpec& t : kTenants) {
    mri::service::TenantLoad tl;
    tl.tenant = t.name;
    tl.weight = t.weight;
    tl.requests = t.requests;
    tl.arrival_rate = t.requests / kServiceWindow;
    tl.order = t.order;
    tl.deadline_seconds = t.deadline_seconds;
    load.tenants.push_back(tl);
  }
  std::vector<mri::service::InversionRequest> requests =
      mri::service::generate_load(load);
  std::map<std::string, double> last;
  for (const auto& r : requests) {
    last[r.tenant] = std::max(last[r.tenant], r.arrival_seconds);
  }
  for (auto& r : requests) r.arrival_seconds *= kServiceWindow / last[r.tenant];
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& x, const auto& y) {
                     return x.arrival_seconds < y.arrival_seconds;
                   });
  return requests;
}

mri::service::ServiceOptions service_options(const Workload& w) {
  mri::service::ServiceOptions o;
  for (const TenantSpec& t : kTenants) o.shares.push_back({t.name, t.weight});
  o.max_concurrent = kServiceSlots;
  o.admission.max_queue_depth = 64;
  o.inversion.nb = w.nb;
  o.inversion.work_dir = "/svc";
  return o;
}

mri::core::InversionOptions inversion_options(const Workload& w) {
  mri::core::InversionOptions o;
  o.nb = w.nb;
  if (w.spin) {
    o.engine = mri::core::EngineKind::kSpin;
    o.cache_capacity_bytes = w.cache_bytes;
  }
  return o;
}

/// One simulated cluster: cost model, DFS, topology and fault schedule.
/// `seed` also draws the nodes' speed factors (CostModel node speed
/// variance), so simulated time is an input-dependent output.
struct SimCluster {
  mri::MetricsRegistry metrics;
  mri::Cluster cluster;
  mri::dfs::Dfs fs;
  std::unique_ptr<mri::ChaosEngine> chaos;

  SimCluster(const Workload& w, std::uint64_t seed)
      : cluster(w.nodes, mri::CostModel::ec2_medium(), seed),
        fs(w.nodes, dfs_config(w), &metrics) {
    if (w.racked) {
      mri::net::TopologyOptions opts;
      opts.kind = mri::net::TopologyKind::kRacked;
      opts.racks = 3;
      opts.oversubscription = 4.0;
      auto topo = std::make_shared<const mri::net::Topology>(
          w.nodes, cluster.cost_model().network_bandwidth, opts);
      cluster.set_topology(topo);
      fs.set_topology(topo);
    }
    if (w.kill_node >= 0 || w.scrub_interval > 0.0) {
      mri::ChaosOptions opts;
      opts.seed = seed;
      chaos = std::make_unique<mri::ChaosEngine>(opts);
      if (w.kill_node >= 0) {
        mri::ChaosEvent kill;
        kill.kind = mri::ChaosEventKind::kKillNode;
        kill.at = w.kill_at;
        kill.node = w.kill_node;
        chaos->add_event(kill);
      }
      fs.bind_chaos(chaos.get(), cluster.cost_model().network_bandwidth,
                    &cluster.cost_model());
    }
  }

  static mri::dfs::DfsConfig dfs_config(const Workload& w) {
    mri::dfs::DfsConfig c;
    if (w.erasure_coded) {
      c.storage_policy = mri::dfs::StoragePolicy::kErasureCoded;
    }
    c.verify_checksums = w.verify_checksums;
    c.scrub_interval_seconds = w.scrub_interval;
    return c;
  }
};

// ------------------------------------------------------------- operations

/// Deterministic outputs and counts of one operation, by name. Every
/// operation of a run must produce exactly the same values.
using Signature = std::vector<std::pair<std::string, double>>;

double sig(const Signature& s, const std::string& key) {
  for (const auto& [k, v] : s) {
    if (k == key) return v;
  }
  return 0.0;
}

void fill_kernel_report(mri::RunReport& report,
                        const mri::kernels::KernelCounters& delta) {
  report.kernel.backend =
      mri::kernels::backend_name(mri::kernels::default_backend());
  report.kernel.gemm_calls = delta.gemm_calls;
  report.kernel.trsm_calls = delta.trsm_calls;
  report.kernel.kernel_flops = delta.flops;
  report.kernel.kernel_seconds = delta.seconds;
  report.kernel.achieved_gflops = delta.gflops();
}

/// Counts every operation reports, read off the run report and the kernel
/// counters.
Signature report_counts(const mri::RunReport& report,
                        const mri::kernels::KernelCounters& kernels,
                        const std::string& json) {
  std::uint64_t attempts = 0;
  for (const mri::PhaseTrace& p : report.phases) attempts += p.events.size();
  double lu_stage = 0.0;
  double inv_stage = 0.0;
  for (const mri::JobSpan& j : report.job_spans) {
    const bool final_stage = j.job.rfind("invert", 0) == 0;
    (final_stage ? inv_stage : lu_stage) += j.end - j.start;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  return {
      {"mapreduce.jobs", d(report.jobs)},
      {"mapreduce.attempts", d(attempts)},
      {"dfs.bytes_read", d(report.io.bytes_read)},
      {"dfs.bytes_written", d(report.io.bytes_written)},
      {"dfs.bytes_transferred", d(report.io.bytes_transferred)},
      {"kernels.calls", d(kernels.gemm_calls + kernels.trsm_calls)},
      {"kernels.gflop", d(kernels.flops) * 1e-9},
      {"integrity.bytes_verified", d(report.integrity.bytes_verified)},
      {"integrity.scrub_bytes", d(report.integrity.scrub_bytes_scanned)},
      {"integrity.scrub_passes", d(report.integrity.scrub_passes)},
      {"integrity.bytes_checksummed", d(report.dfs_io.bytes_checksummed)},
      {"ec.parity_bytes", d(report.storage.parity_bytes)},
      {"ec.cells_reconstructed", d(report.storage.cells_reconstructed)},
      {"ec.reconstructed_bytes", d(report.storage.reconstructed_bytes)},
      {"net.cross_rack_bytes", d(report.network.cross_rack_bytes)},
      {"engine.cache_hits", d(report.engine.cache_hits)},
      {"engine.spilled_bytes", d(report.engine.spilled_bytes)},
      {"engine.partitions_recomputed",
       d(report.engine.partitions_recomputed)},
      {"sim.chaos_events", d(report.chaos_events.size())},
      {"core.lu_stage_sim_s", lu_stage},
      {"core.inversion_stage_sim_s", inv_stage},
      // 53 bits, so the hash survives the trip through a double.
      {"report.json_hash", d(fnv1a(json.data(), json.size()) >> 11)},
  };
}

struct OpResult {
  double wall_s = 0.0;
  double report_s = 0.0;
  double kernel_busy_s = 0.0;  // thread-seconds inside kernel calls
  Signature signature;
  std::string error;
  // Single inversion: the inverse. Service: per-request records.
  Matrix inverse;
  mri::service::ServiceResult service;
};

OpResult run_single(const Workload& w, const Matrix& a, mri::ThreadPool& pool,
                    std::uint64_t seed, SpanRecorder& spans) {
  OpResult op;
  Span root(spans, "operation", "bench");
  Stopwatch wall;
  try {
    const auto kernels_before = mri::kernels::counters_snapshot();
    auto sim = std::make_unique<SimCluster>(w, seed);
    mri::core::MapReduceInverter inverter(&sim->cluster, &sim->fs, &pool,
                                          nullptr, &sim->metrics,
                                          sim->chaos.get());
    mri::core::MapReduceInverter::Result r;
    {
      Span s(spans, "MapReduceInverter::invert", "core");
      r = inverter.invert(a, inversion_options(w));
    }
    const auto kernels = mri::kernels::counters_snapshot() - kernels_before;
    Stopwatch report_clock;
    mri::RunReport report;
    std::string json;
    {
      Span s(spans, "build_run_report", "sim");
      report = mri::mr::build_run_report(
          r.jobs, sim->cluster, &sim->metrics, r.master_spans,
          sim->chaos.get(), r.engine_active ? &r.engine_stats : nullptr,
          &sim->fs);
      fill_kernel_report(report, kernels);
    }
    {
      Span s(spans, "run_report_json", "sim");
      json = mri::run_report_json(report);
    }
    op.report_s = report_clock.seconds();
    op.kernel_busy_s = kernels.seconds;
    op.signature = report_counts(report, kernels, json);
    const double sim_s = r.report.sim_seconds;
    op.signature.insert(op.signature.begin(),
                        {{"sim_s", sim_s},
                         {"latency_p50_s", sim_s},
                         {"latency_p95_s", sim_s},
                         {"core.plan_ratio",
                          mri::core::predict_cost(a.rows(), w.nb, w.nodes,
                                                  sim->cluster.cost_model())
                                  .mapreduce_seconds /
                              sim_s}});
    op.inverse = std::move(r.inverse);
    sim.reset();
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.wall_s = wall.seconds();
  return op;
}

OpResult run_service(const Workload& w,
                     const std::vector<mri::service::InversionRequest>& load,
                     mri::ThreadPool& pool, std::uint64_t seed,
                     SpanRecorder& spans) {
  OpResult op;
  Span root(spans, "operation", "bench");
  Stopwatch wall;
  try {
    const auto kernels_before = mri::kernels::counters_snapshot();
    auto sim = std::make_unique<SimCluster>(w, seed);
    mri::service::InversionService svc(&sim->cluster, &sim->fs, &pool,
                                       service_options(w), nullptr,
                                       &sim->metrics, nullptr);
    {
      Span s(spans, "InversionService::run", "service");
      op.service = svc.run(load);
    }
    const auto kernels = mri::kernels::counters_snapshot() - kernels_before;
    Stopwatch report_clock;
    std::string json;
    {
      Span s(spans, "run_report_json", "sim");
      fill_kernel_report(op.service.report, kernels);
      json = mri::run_report_json(op.service.report);
    }
    op.report_s = report_clock.seconds();
    op.kernel_busy_s = kernels.seconds;

    const mri::service::ServiceResult& res = op.service;
    std::vector<double> latency;
    double predicted = 0.0;
    double observed = 0.0;
    int misses = 0;
    for (std::size_t i = 0; i < res.stats.size(); ++i) {
      const mri::RequestStat& st = res.stats[i];
      if (st.rejected || st.unrecoverable) {
        ++misses;
        continue;
      }
      latency.push_back(st.finish - st.arrival);
      if (st.deadline_seconds > 0.0 &&
          st.finish > st.arrival + st.deadline_seconds) {
        ++misses;
      }
      predicted += mri::core::predict_cost(load[i].order, w.nb, w.nodes,
                                           sim->cluster.cost_model())
                       .mapreduce_seconds;
      observed += st.finish - st.dispatch;
    }
    const double p95 = percentile(latency, 0.95);
    op.signature = {
        {"sim_s", res.makespan},
        {"latency_p50_s", percentile(latency, 0.50)},
        {"latency_p95_s", p95},
        {"latency_beyond_p95", static_cast<double>(count_above(latency, p95))},
        {"core.plan_ratio", observed > 0.0 ? predicted / observed : 0.0},
        {"service.submitted", static_cast<double>(res.submitted)},
        {"service.admitted", static_cast<double>(res.admitted)},
        {"service.rejected", static_cast<double>(res.rejected)},
        {"service.retries", static_cast<double>(res.retries)},
        {"service.unrecoverable", static_cast<double>(res.unrecoverable)},
        {"service.slo_miss_ratio",
         res.submitted > 0 ? static_cast<double>(misses) / res.submitted
                           : 0.0},
    };
    const Signature counts = report_counts(res.report, kernels, json);
    op.signature.insert(op.signature.end(), counts.begin(), counts.end());
    sim.reset();
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.wall_s = wall.seconds();
  return op;
}

// ------------------------------------------------------------------ checks

/// Guards: the workload still does the work it exists for. Returns the
/// first violated guard, or an empty string.
std::string guard_violation(const Workload& w, const OpResult& op) {
  const Signature& s = op.signature;
  const std::string name = w.name;
  if (name == "invert-2048") {
    if (sig(s, "integrity.bytes_verified") != 0.0 ||
        sig(s, "integrity.scrub_passes") != 0.0 ||
        sig(s, "sim.chaos_events") != 0.0) {
      return "invert-2048 runs with verification and chaos off, but "
             "integrity or chaos counts are nonzero";
    }
  } else if (name == "storage-chaos") {
    if (sig(s, "integrity.scrub_passes") <= 0.0) return "no scrub pass ran";
    if (sig(s, "ec.cells_reconstructed") <= 0.0) {
      return "no EC cell was reconstructed";
    }
    if (sig(s, "integrity.bytes_verified") <= 0.0) {
      return "no CRC bytes were verified";
    }
  } else if (name == "spin-spill") {
    if (sig(s, "engine.spilled_bytes") <= 0.0) return "nothing spilled";
    if (sig(s, "engine.partitions_recomputed") <= 0.0) {
      return "no partition was recomputed from lineage";
    }
  } else if (name == "service-poisson") {
    if (sig(s, "latency_beyond_p95") < 10.0) {
      return "fewer than 10 latency samples beyond p95";
    }
    // No backlog at the offered rate: the last tenth of arrivals waits, on
    // average, no more than one median service time longer than the first
    // tenth.
    std::vector<const mri::RequestStat*> admitted;
    std::vector<double> service_times;
    for (const mri::RequestStat& st : op.service.stats) {
      if (st.rejected || st.unrecoverable) continue;
      admitted.push_back(&st);
      service_times.push_back(st.finish - st.dispatch);
    }
    std::stable_sort(admitted.begin(), admitted.end(),
                     [](const auto* x, const auto* y) {
                       return x->arrival < y->arrival;
                     });
    const std::size_t tenth = admitted.size() / 10;
    if (tenth == 0) return "too few admitted requests";
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < tenth; ++i) {
      first += admitted[i]->dispatch - admitted[i]->arrival;
      const auto* l = admitted[admitted.size() - 1 - i];
      last += l->dispatch - l->arrival;
    }
    first /= static_cast<double>(tenth);
    last /= static_cast<double>(tenth);
    if (last > first + median(service_times)) {
      std::ostringstream msg;
      msg << "backlog grows: mean queue wait " << first
          << " sim-s over the first tenth of arrivals vs " << last
          << " over the last";
      return msg.str();
    }
  }
  return "";
}

/// Service records: every request is accounted for and every admitted one
/// finished after it arrived and was dispatched.
std::string service_record_error(const mri::service::ServiceResult& res,
                                 std::size_t submitted) {
  if (static_cast<std::size_t>(res.submitted) != submitted ||
      res.admitted + res.rejected != res.submitted ||
      res.stats.size() != submitted) {
    return "request accounting does not add up";
  }
  for (const mri::RequestStat& st : res.stats) {
    if (st.rejected) continue;
    if (!std::isfinite(st.finish) || st.dispatch < st.arrival ||
        st.finish < st.dispatch) {
      return "a request record is out of order or non-finite";
    }
  }
  return "";
}

// ------------------------------------------------------------------ output

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const bool service = w.kind == Kind::kService;

  const std::string backend =
      mri::kernels::backend_name(mri::kernels::default_backend());
  std::ostringstream host;
  host << "{\"cpu\":\"" << json_escape(cpu_model())
       << "\",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"kernel_backend\":\"" << backend << "\",\"build_type\":\""
       << PERFBENCH_BUILD_TYPE << "\",\"pool_threads\":" << kPoolThreads
       << ",\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
       << ",\"seconds\":" << args.seconds
       << ",\"trace\":" << (args.trace ? 1 : 0) << "}";
  std::printf("host %s\n", host.str().c_str());

  SpanRecorder spans;
  spans.enabled = args.trace;

  // Set-up: input generation plus construction of the pool, the simulated
  // cluster and DFS (and the service), repeated; the median is setup_s.
  std::vector<double> setup_times;
  Matrix a;
  std::vector<mri::service::InversionRequest> load;
  std::unique_ptr<mri::ThreadPool> pool;
  const Stopwatch setup_clock;
  while (static_cast<int>(setup_times.size()) < kSetupMinRepeats ||
         setup_clock.seconds() < kSetupMinSeconds) {
    Span span(spans, "setup", "bench");
    pool.reset();
    Stopwatch clock;
    if (service) {
      Span s(spans, "generate_load", "service");
      load = service_load(args.seed);
    } else {
      Span s(spans, "random_matrix", "matrix");
      a = mri::random_matrix(w.n, args.seed);
    }
    pool = std::make_unique<mri::ThreadPool>(kPoolThreads);
    {
      Span s(spans, "SimCluster", "sim");
      SimCluster sim(w, args.seed);
      if (service) {
        mri::service::InversionService svc(&sim.cluster, &sim.fs, pool.get(),
                                           service_options(w), nullptr,
                                           &sim.metrics, nullptr);
      }
      setup_times.push_back(clock.seconds());
    }
  }

  const auto operation = [&] {
    return service ? run_service(w, load, *pool, args.seed, spans)
                   : run_single(w, a, *pool, args.seed, spans);
  };

  // Warm-up operation: untimed; its outputs are the determinism reference.
  spans.current_op = 0;
  OpResult reference = operation();
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::map<std::uint64_t, InverseCheck> checked;  // by output hash
  double worst_residual = 0.0;
  double worst_rel_residual = 0.0;

  const auto check_op = [&](const OpResult& op) {
    if (service) {
      attempted += static_cast<int>(load.size());
      if (!op.error.empty()) {
        failed += static_cast<int>(load.size());
        problems.push_back("service run threw: " + op.error);
        return;
      }
      failed += op.service.unrecoverable;
      const std::string err = service_record_error(op.service, load.size());
      if (!err.empty()) problems.push_back(err);
      return;
    }
    ++attempted;
    if (!op.error.empty()) {
      ++failed;
      problems.push_back("inversion threw: " + op.error);
      return;
    }
    Span span(spans, "check_inverse", "check");
    const std::uint64_t h = matrix_hash(op.inverse);
    auto it = checked.find(h);
    if (it == checked.end()) {
      it = checked.emplace(h, check_inverse(a, op.inverse)).first;
    }
    const InverseCheck& c = it->second;
    worst_residual = nan_max(worst_residual, c.max_abs_residual);
    worst_rel_residual = nan_max(worst_rel_residual, c.rel_residual);
    if (!c.ok) ++failed;
  };
  check_op(reference);
  reference.inverse = Matrix();

  // Measured operations. With tracing on, spans are recorded on every other
  // operation so the run also yields the tracing overhead.
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::vector<double> report_times;
  std::vector<double> busy;
  double measured = 0.0;
  std::string mismatch;
  for (int i = 0; static_cast<int>(walls.size()) < kMinOps ||
                  measured < args.seconds;
       ++i) {
    spans.enabled = args.trace && i % 2 == 0;
    spans.current_op = i + 1;
    OpResult op = operation();
    spans.enabled = args.trace;
    walls.push_back(op.wall_s);
    (i % 2 == 0 ? traced_walls : untraced_walls).push_back(op.wall_s);
    report_times.push_back(op.report_s);
    busy.push_back(op.kernel_busy_s);
    measured += op.wall_s;
    check_op(op);
    if (mismatch.empty() && op.error.empty()) {
      for (std::size_t k = 0; k < reference.signature.size(); ++k) {
        const auto& [key, want] = reference.signature[k];
        const double got = k < op.signature.size() ? op.signature[k].second
                                                   : std::nan("");
        if (!(got == want)) {
          std::ostringstream msg;
          msg << "determinism: " << key << " was " << want
              << " on the first operation and " << got << " on operation "
              << i + 1;
          mismatch = msg.str();
          break;
        }
      }
    }
  }
  const double rss = peak_rss_mb();
  spans.current_op = -1;
  if (!mismatch.empty()) problems.push_back(mismatch);
  if (reference.error.empty()) {
    const std::string guard = guard_violation(w, reference);
    if (!guard.empty()) problems.push_back("guard: " + guard);
  }

  // service-poisson: the service keeps no inverses, so re-invert the first
  // request of every tenant through the same inverter and options on a
  // fresh cluster and check those.
  if (service) {
    std::map<std::string, bool> seen;
    for (const auto& r : load) {
      if (seen[r.tenant]) continue;
      seen[r.tenant] = true;
      Span span(spans, "check_inverse", "check");
      const Matrix m = mri::random_matrix(r.order, r.seed);
      SimCluster sim(w, args.seed);
      mri::core::MapReduceInverter inverter(&sim.cluster, &sim.fs, pool.get(),
                                            nullptr, &sim.metrics);
      const InverseCheck c = check_inverse(
          m, inverter.invert(m, service_options(w).inversion).inverse);
      worst_residual = nan_max(worst_residual, c.max_abs_residual);
      worst_rel_residual = nan_max(worst_rel_residual, c.rel_residual);
      ++attempted;
      if (!c.ok) {
        ++failed;
        problems.push_back("tenant " + r.tenant + ": wrong inverse");
      }
    }
  }
  if (failed > 0) problems.push_back("failed operations");

  const Signature& s = reference.signature;
  const double wall_s = median(walls);
  // Requests one operation completes (every operation completes the same
  // ones: the determinism cross-check compares these counts).
  const double requests_per_op =
      service ? sig(s, "service.admitted") - sig(s, "service.unrecoverable")
              : 1.0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"requests_per_s", requests_per_op / wall_s, "1/s"},
        {"peak_rss_mb", rss, "MB"},
        {"setup_s", median(setup_times), "s"},
        {"sim_s", sig(s, "sim_s"), "sim-s"},
        {"latency_p50_s", sig(s, "latency_p50_s"), "sim-s"},
        {"latency_p95_s", sig(s, "latency_p95_s"), "sim-s"},
    };
  } else {
    ReplayShape shape;
    shape.nodes = w.nodes;
    shape.racked = w.racked;
    shape.verify_checksums = w.verify_checksums;
    shape.cache_bytes_per_node = w.cache_bytes;
    shape.tile = w.n / 4;
    shape.lu_order = w.nb;
    shape.tri_n = w.n;
    shape.tri_m0 = w.nodes;
    shape.file_bytes =
        static_cast<std::uint64_t>(shape.tile * shape.tile) * sizeof(double);
    shape.phase_tasks = static_cast<int>(
        std::max<double>(w.nodes, sig(s, "mapreduce.attempts") /
                                      std::max(1.0, sig(s, "mapreduce.jobs"))));
    shape.seed = args.seed;
    std::map<std::string, double> rates;
    {
      Span span(spans, "replay_layers", "bench");
      rates = replay_layers(shape, spans);
    }
    std::vector<double> gen_times;
    for (int rep = 0; rep < 3; ++rep) {
      Span span(spans, "random_matrix", "matrix");
      Stopwatch clock;
      (void)mri::random_matrix(w.n, args.seed + rep);
      gen_times.push_back(clock.seconds());
    }

    // Per-operation self time of each layer over the traced operations
    // (op ids >= 1, so set-up and warm-up are excluded; the checks that
    // follow each operation form their own, unreported, layer).
    std::map<std::string, double> self = spans.self_seconds(/*min_op=*/1);
    for (auto& [layer, v] : self) v /= static_cast<double>(traced_walls.size());

    // Estimated share of the pool's thread-time (wall_s x 4) per layer: the
    // workload's own count divided by the layer's replayed rate. CRC bytes
    // are every byte the DFS checksummed (write path, read verification
    // and scrub), from the metrics registry. RS(6,3) encodes k/m = 2 data
    // bytes per parity byte.
    const double thread_s = wall_s * kPoolThreads;
    const double crc_bytes = sig(s, "integrity.bytes_checksummed");
    const double ec_seconds =
        sig(s, "ec.parity_bytes") * 2.0 / (rates["ec.encode_gbps"] * 1e9) +
        sig(s, "ec.reconstructed_bytes") / (rates["ec.decode_gbps"] * 1e9);
    double tri_gflop = 0.0;
    if (service) {
      for (const auto& r : load) {
        tri_gflop += 2.0 * std::pow(static_cast<double>(r.order), 3) / 3.0e9;
      }
    } else {
      tri_gflop = 2.0 * std::pow(static_cast<double>(w.n), 3) / 3.0e9;
    }
    const double busy_s = median(busy);
    const double traced = median(traced_walls);
    const double untraced = median(untraced_walls);
    metrics = {
        {"kernels.gemm_gflops", rates["kernels.gemm_gflops"], "GFLOP/s"},
        {"kernels.gemm_bt_gflops", rates["kernels.gemm_bt_gflops"], "GFLOP/s"},
        {"kernels.trsm_gflops", rates["kernels.trsm_gflops"], "GFLOP/s"},
        {"kernels.calls", sig(s, "kernels.calls"), "count"},
        {"kernels.gflop", sig(s, "kernels.gflop"), "GFLOP"},
        {"kernels.busy_s", busy_s, "thread-s"},
        {"kernels.share", busy_s / thread_s, "ratio"},
        {"linalg.lu_gflops", rates["linalg.lu_gflops"], "GFLOP/s"},
        {"linalg.tri_inv_gflops", rates["linalg.tri_inv_gflops"], "GFLOP/s"},
        {"linalg.tri_inv_upper_gflops", rates["linalg.tri_inv_upper_gflops"],
         "GFLOP/s"},
        {"dfs.write_gbps_rep3", rates["dfs.write_gbps_rep3"], "GB/s"},
        {"dfs.read_gbps_rep3", rates["dfs.read_gbps_rep3"], "GB/s"},
        {"dfs.write_gbps_rs63", rates["dfs.write_gbps_rs63"], "GB/s"},
        {"dfs.read_gbps_rs63", rates["dfs.read_gbps_rs63"], "GB/s"},
        {"dfs.ns_ops_per_s", rates["dfs.ns_ops_per_s"], "1/s"},
        {"dfs.bytes_read", sig(s, "dfs.bytes_read"), "B"},
        {"dfs.bytes_written", sig(s, "dfs.bytes_written"), "B"},
        {"dfs.bytes_transferred", sig(s, "dfs.bytes_transferred"), "B"},
        {"integrity.crc32c_gbps", rates["integrity.crc32c_gbps"], "GB/s"},
        {"integrity.bytes_verified", sig(s, "integrity.bytes_verified"), "B"},
        {"integrity.scrub_bytes", sig(s, "integrity.scrub_bytes"), "B"},
        {"integrity.share",
         crc_bytes / (rates["integrity.crc32c_gbps"] * 1e9) / thread_s,
         "ratio"},
        {"ec.encode_gbps", rates["ec.encode_gbps"], "GB/s"},
        {"ec.decode_gbps", rates["ec.decode_gbps"], "GB/s"},
        {"ec.parity_bytes", sig(s, "ec.parity_bytes"), "B"},
        {"ec.cells_reconstructed", sig(s, "ec.cells_reconstructed"), "count"},
        {"ec.share", ec_seconds / thread_s, "ratio"},
        {"net.flows_per_s", rates["net.flows_per_s"], "1/s"},
        {"net.cross_rack_bytes", sig(s, "net.cross_rack_bytes"), "B"},
        {"mapreduce.attempts_per_s", rates["mapreduce.attempts_per_s"], "1/s"},
        {"mapreduce.jobs", sig(s, "mapreduce.jobs"), "count"},
        {"mapreduce.attempts", sig(s, "mapreduce.attempts"), "count"},
        {"common.pool_tasks_per_s", rates["common.pool_tasks_per_s"], "1/s"},
        {"sim.report_s", median(report_times), "s"},
        {"sim.chaos_events", sig(s, "sim.chaos_events"), "count"},
        {"core.lu_stage_sim_s", sig(s, "core.lu_stage_sim_s"), "sim-s"},
        {"core.inversion_stage_sim_s", sig(s, "core.inversion_stage_sim_s"),
         "sim-s"},
        {"core.plan_ratio", sig(s, "core.plan_ratio"), "ratio"},
        {"linalg.tri_inv_share",
         tri_gflop / rates["linalg.tri_inv_gflops"] / thread_s,
         "ratio"},
        {"engine.cache_ops_per_s", rates["engine.cache_ops_per_s"], "1/s"},
        {"engine.cache_hits", sig(s, "engine.cache_hits"), "count"},
        {"engine.spilled_bytes", sig(s, "engine.spilled_bytes"), "B"},
        {"engine.partitions_recomputed", sig(s, "engine.partitions_recomputed"),
         "count"},
        {"service.admitted", sig(s, "service.admitted"), "count"},
        {"service.rejected", sig(s, "service.rejected"), "count"},
        {"service.retries", sig(s, "service.retries"), "count"},
        {"service.slo_miss_ratio", sig(s, "service.slo_miss_ratio"), "ratio"},
        {"matrix.generate_s", median(gen_times), "s"},
        {"check.residual", worst_residual, "1"},
        {"check.rel_residual", worst_rel_residual, "1"},
        {"self.core_s", self["core"], "s"},
        {"self.service_s", self["service"], "s"},
        {"self.sim_s", self["sim"], "s"},
        {"self.bench_s", self["bench"], "s"},
        {"trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%"},
    };
  }

  // Human-readable summary, then the result line.
  std::printf("%-30s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-30s %16zu  ops (wall_s is their median):", "samples",
              walls.size());
  for (const double v : walls) std::printf(" %.4g", v);
  std::printf("\n");
  std::printf("%-30s %16.6g  ratio\n", "fail_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  std::printf("%-30s %16.6g  ratio\n", "slo_miss_ratio",
              sig(s, "service.slo_miss_ratio"));
  std::printf("%-30s %16.6g  max|I-AX| (rel %.3g)\n", "residual",
              worst_residual, worst_rel_residual);
  for (const std::string& p : problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ostringstream meta;
    meta << "{\"host\":" << host.str() << ",\"metrics\":{";
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      meta << (k ? "," : "") << "\"" << metrics[k].name
           << "\":" << json_number(metrics[k].value);
    }
    meta << "}}";
    if (!spans.write_chrome_trace(args.trace_out, meta.str())) {
      problems.push_back("cannot write " + args.trace_out);
    } else {
      std::printf("spans written to %s\n", args.trace_out.c_str());
    }
  }

  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                k ? ", " : "", metrics[k].name.c_str(),
                json_number(metrics[k].value).c_str(),
                metrics[k].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out spans.json]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
