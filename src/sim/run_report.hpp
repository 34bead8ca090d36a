// Run-level aggregation of scheduler traces, plus JSON export.
//
// A run is a sequence of scheduled phases (two per MapReduce job) laid out
// on the run's simulated timeline. From the raw per-attempt events this
// module derives the quantities the paper argues with: waves of tasks,
// slot utilization, straggler spread, and the failure-recovery timeline
// (§7.4). Two export shapes are provided:
//   * run_report_json()  — machine-readable summary (schema in README.md);
//   * chrome_trace_json() — Chrome trace_event format; load the file in
//     chrome://tracing (or ui.perfetto.dev) to see the per-slot timeline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/io_stats.hpp"
#include "sim/trace.hpp"

namespace mri {

/// One network link's traffic totals over a phase or a whole run, from the
/// flow-level simulator (racked topologies only). Kept free of src/net types
/// so report consumers need no network dependency; `name` may be empty in
/// per-phase lanes (index into the run-level links gives it).
struct LinkReport {
  std::string name;
  std::uint64_t bytes = 0;
  double busy_seconds = 0.0;
  double peak_utilization = 0.0;  // fraction of link capacity, in [0, 1]
};

/// Flow-level network accounting for the run. `enabled` is false (and
/// everything zero/empty) unless a racked topology was attached to the
/// cluster.
struct NetworkReport {
  bool enabled = false;
  std::string topology = "flat";
  int racks = 0;
  double oversubscription = 1.0;
  bool rack_aware_placement = false;
  /// Recorded DFS/shuffle transfer bytes split by distance travelled.
  std::uint64_t node_local_bytes = 0;
  std::uint64_t rack_local_bytes = 0;
  std::uint64_t cross_rack_bytes = 0;
  /// Task attempts dispatched inside (vs outside) their home rack.
  int rack_local_attempts = 0;
  int cross_rack_attempts = 0;
  /// Per-link totals, indexed by topology link id.
  std::vector<LinkReport> links;
};

/// One scheduled phase placed on the run timeline. Event times inside
/// `events` are phase-relative; add `start` for run-relative times.
struct PhaseTrace {
  std::string job;
  std::string phase;  // "map" or "reduce"
  double start = 0.0;     // run-relative phase start (after job launch)
  double duration = 0.0;  // scheduler-reported phase duration
  std::vector<TaskTraceEvent> events;
  /// Per-link loads of this phase (racked topologies only; else empty).
  std::vector<LinkReport> link_loads;
};

/// Aggregates computed from one PhaseTrace by aggregate_run_report().
struct PhaseReport {
  std::string job;
  std::string phase;
  int tasks = 0;
  int attempts = 0;  // includes failed attempts and speculative backups
  int failures = 0;
  int backups = 0;
  /// Max number of attempts any single slot executed (1 = one wave).
  int waves = 0;
  double duration = 0.0;
  /// Sum of attempt spans; utilization = busy / (total_slots * duration).
  double busy_seconds = 0.0;
  double slot_utilization = 0.0;
  /// Straggler spread over per-task effective completion times.
  double median_task_end = 0.0;
  double max_task_end = 0.0;
  double straggler_ratio = 0.0;  // max / median (1.0 when degenerate)
};

/// One recovered failure: when the attempt died and when its retry started,
/// both run-relative.
struct FailureRecovery {
  std::string job;
  std::string phase;
  int task = 0;
  int attempt = 0;  // the attempt that died
  int node = 0;     // the node lost with it
  double failed_at = 0.0;
  double retry_start = 0.0;  // < 0 when no retry event was found
};

/// One job's [start, end) extent on the run timeline — the per-job lane of
/// the Chrome trace, where concurrently scheduled jobs visibly overlap.
struct JobSpan {
  std::string job;
  double start = 0.0;
  double end = 0.0;
};

/// One service request's lifecycle on the run timeline (service layer):
/// arrival -> dispatch is queue wait, dispatch -> finish is execution.
/// Rejected requests carry dispatch == finish == arrival.
struct RequestSpan {
  std::string request;  // "r<id>"
  std::string tenant;
  double arrival = 0.0;
  double dispatch = 0.0;
  double finish = 0.0;
  bool rejected = false;
};

/// Raw per-request accounting the service feeds aggregate_tenant_reports().
struct RequestStat {
  std::string tenant;
  int weight = 1;
  bool rejected = false;
  double arrival = 0.0;
  double dispatch = 0.0;
  double finish = 0.0;
  /// Sum of this request's task-attempt spans (its cluster occupancy).
  double slot_seconds = 0.0;
  /// Advisory deadline (seconds after arrival; 0 = none).
  double deadline_seconds = 0.0;
  /// Service-level retries this request consumed (fault recovery).
  int retries = 0;
  /// The request exhausted its retry budget (or hit permanent data loss /
  /// its deadline) and was abandoned; `finish` is the abandon time.
  bool unrecoverable = false;
};

/// Per-tenant SLO aggregates derived from RequestStats.
struct TenantReport {
  std::string tenant;
  int weight = 1;
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  double queue_wait_mean = 0.0;
  double queue_wait_max = 0.0;
  double latency_p50 = 0.0;  // arrival -> finish, admitted requests only
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double slot_seconds = 0.0;
  /// Admitted requests that finished after arrival + deadline (requests
  /// without a deadline hint never count).
  int deadline_misses = 0;
  /// Service-level retries across the tenant's requests, and requests
  /// abandoned as unrecoverable after exhausting them.
  int retries = 0;
  int unrecoverable = 0;
};

/// Fault-recovery accounting for one run: what the chaos engine broke and
/// what every layer paid to absorb it. The RecoveryStats base is the chaos
/// engine's own record (ChaosEngine::stats()); the fields below are summed
/// from JobResults and the DFS metrics. All zero for a chaos-free run.
struct RecoveryReport : RecoveryStats {
  int tasks_recomputed = 0;      // completed maps re-executed (outputs died)
  int attempts_killed = 0;       // in-flight attempts lost to node outages
  /// Reduce-phase stall waiting for map recomputation waves (summed).
  double recovery_seconds = 0.0;
  IoStats recovery_io;  // wasted + re-done task footprint (included in io)
  /// Injected read errors that a replica/cell failover absorbed (the
  /// "dfs_read_errors_survived" counter).
  std::uint64_t read_errors_survived = 0;
};

/// One integrity repair on the run timeline: a corrupt copy re-materialized
/// from a healthy replica ("copy"), decoded from k clean survivors ("ec"),
/// or recomputed from lineage ("lineage") — triggered by a verifying read
/// or by the background scrubber.
/// The victim is named by path + cell, not block id: ids follow commit
/// order, which races across task threads, and repair events must stay
/// bit-identical between same-seed runs.
struct IntegrityRepairSpan {
  double at = 0.0;
  int node = 0;
  std::string path;
  int cell = 0;
  std::uint64_t bytes = 0;
  std::string kind = "copy";
  bool by_scrubber = false;
};

/// One background scrubber pass over the namespace.
struct ScrubPassSpan {
  double at = 0.0;
  double seconds = 0.0;
  std::uint64_t bytes_scanned = 0;
  std::int64_t cells_verified = 0;
  std::int64_t cells_repaired = 0;
};

/// End-to-end data-integrity accounting: write-path checksumming,
/// verify-on-read, silent-corruption injection, read-repair and the
/// background scrubber. The DFS records into this type as it works
/// (Dfs::integrity_report()). Always present in the report (stable schema);
/// on a run with verification off and no corruption every field is zero,
/// which keeps pre-integrity reports bit-identical.
struct IntegrityReport {
  bool verify_checksums = false;
  double scrub_interval_seconds = 0.0;
  std::int64_t cells_checksummed = 0;  // cells CRC'd on the write path
  std::int64_t cells_verified = 0;     // cells CRC-checked on read/scrub
  std::uint64_t bytes_verified = 0;
  std::int64_t corruptions_injected = 0;
  std::int64_t corruptions_detected = 0;
  std::int64_t cells_repaired_copy = 0;
  std::int64_t cells_repaired_ec = 0;
  std::int64_t cells_repaired_lineage = 0;
  std::int64_t cells_quarantined = 0;
  std::int64_t scrub_passes = 0;
  std::uint64_t scrub_bytes_scanned = 0;
  double scrub_seconds = 0.0;
  std::vector<IntegrityRepairSpan> repairs;
  std::vector<ScrubPassSpan> scrub_spans;
};

/// One cache eviction spilled to local disk. The engine stamps the 1-based
/// ordinal of the job whose admission evicted it; build_run_report() turns
/// that into `at`, the start of the job's map phase on the run timeline.
struct EngineSpillSpan {
  double at = 0.0;
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t job_ordinal = 0;
};

/// One memory-tier partition rebuilt from lineage after a node kill.
struct EngineRecomputeSpan {
  double at = 0.0;        // when the partition's recovery wave starts
  double duration = 0.0;  // the producing task's simulated re-run time
  int wave = 0;           // 0-based ascending-depth wave index
  std::string path;
  std::uint64_t bytes = 0;
};

/// SPIN-style in-memory engine accounting: block-cache behaviour, lineage
/// tracking and recovery totals, as SpinEngine::stats() records them.
/// `enabled` is false (everything zero/empty) on Hadoop-style disk-tier
/// runs.
struct EngineReport {
  bool enabled = false;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  /// Consumer-side touches of resident entries — the reads that stream at
  /// memory bandwidth (pipeline fusion between producer and consumer jobs).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_resident_bytes = 0;  // at end of run
  std::uint64_t cache_peak_resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t tracked_partitions = 0;  // lineage records live at end of run
  int partitions_recomputed = 0;
  int lineage_waves = 0;
  double recompute_seconds = 0.0;
  std::uint64_t recomputed_bytes = 0;
  /// Job map-phase stalls waiting for lineage recovery (summed over jobs).
  double lineage_stall_seconds = 0.0;
  std::vector<EngineSpillSpan> spills;
  std::vector<EngineRecomputeSpan> recomputes;
};

/// One erasure-coded stripe repair after a node kill, on the run timeline:
/// `cells` cells decoded back from k survivors and re-placed, costing
/// `seconds` (k-survivor fan-in through the network model + decode CPU).
struct StorageReconstruction {
  double at = 0.0;
  int node = 0;  // the killed node whose cells were rebuilt
  int cells = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// DFS storage-policy accounting: logical vs physical footprint, parity and
/// reconstruction traffic, and the namenode hot-block cache. The DFS fills
/// everything but the four traffic totals (Dfs::storage_report()), which
/// build_run_report() takes from the metrics. Always present in the report
/// (stable schema); on replicated runs `policy` is "replicate", ec_k/ec_m
/// are zero and every EC counter stays zero.
struct StorageReport {
  std::string policy = "replicate";
  int ec_k = 0;
  int ec_m = 0;
  /// Bytes of file content the namespace holds vs bytes actually resident
  /// on datanodes (replicas or data+parity cells); overhead is their ratio.
  std::uint64_t logical_bytes = 0;
  std::uint64_t physical_bytes = 0;
  double physical_overhead = 0.0;  // physical / logical (0 when no data)
  /// DFS-side EC traffic totals (from the MetricsRegistry).
  std::uint64_t parity_bytes = 0;
  std::uint64_t reconstructed_bytes = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t cells_reconstructed = 0;
  /// Namenode hot-block cache (zero when disabled).
  std::uint64_t hot_cache_capacity_bytes = 0;
  std::uint64_t hot_cache_resident_bytes = 0;
  std::uint64_t hot_cache_resident_files = 0;
  std::uint64_t hot_cache_hits = 0;
  std::uint64_t hot_cache_hit_bytes = 0;
  /// Stripe repairs after node kills, in kill order.
  std::vector<StorageReconstruction> reconstructions;
};

/// Compute-kernel engine accounting: which GEMM/TRSM backend and multiply
/// strategy the run used, and the kernel work it executed. Always present
/// in the report (stable schema); defaults describe a run that did no
/// kernel work on the default configuration. Kept free of src/linalg types
/// so report consumers need no kernel dependency.
struct KernelReport {
  std::string backend;  // "naive" | "tiled" | "simd" | "threaded"
  std::string multiply_strategy = "wrap";
  int replication = 1;
  int multiply_rounds = 1;
  std::uint64_t gemm_calls = 0;
  std::uint64_t trsm_calls = 0;
  std::uint64_t kernel_flops = 0;
  /// Wall-clock spent inside kernels and the implied GFLOP/s — real-machine
  /// measurements (for CostModel calibration), NOT simulation outputs.
  /// Deliberately EXCLUDED from run_report_json() so same-seed reports stay
  /// bit-identical across hosts and runs.
  double kernel_seconds = 0.0;
  double achieved_gflops = 0.0;
};

struct RunReport {
  double sim_seconds = 0.0;
  IoStats io;  // full run footprint (includes speculative re-work)
  int jobs = 0;
  int failures_recovered = 0;
  int backups_run = 0;
  int total_slots = 0;
  std::uint64_t shuffle_local_bytes = 0;
  std::uint64_t shuffle_remote_bytes = 0;
  /// DFS-side totals from the MetricsRegistry, when one was attached.
  IoStats dfs_io;
  std::map<std::string, std::uint64_t> counters;
  std::vector<PhaseTrace> phases;
  /// Per-job [start, end) lanes on the run timeline.
  std::vector<JobSpan> job_spans;
  /// Serial master-node work (leaf LUs, determinant reads) between jobs;
  /// previously an invisible gap in the timeline.
  std::vector<MasterSpan> master_spans;
  /// Derived by aggregate_run_report().
  std::vector<PhaseReport> phase_reports;
  std::vector<FailureRecovery> failure_timeline;
  double master_seconds = 0.0;       // sum over master_spans
  double busy_slot_seconds = 0.0;    // sum of attempt spans over all phases
  /// Cluster-wide slot utilization over the whole run:
  /// busy_slot_seconds / (total_slots * sim_seconds).
  double cluster_utilization = 0.0;
  /// Service-layer lanes and aggregates (empty for single-run reports);
  /// filled by aggregate_tenant_reports().
  std::vector<RequestSpan> request_spans;
  std::vector<TenantReport> tenants;
  /// Jain's fairness index over per-tenant weighted slot-seconds
  /// ((Σx)² / (n·Σx²), x = slot_seconds/weight): 1.0 = perfectly
  /// proportional sharing, 1/n = one tenant got everything.
  double fairness_index = 1.0;
  /// Chaos-run recovery accounting (all zero without a chaos engine), and
  /// the fault events that actually fired during the run (absolute run
  /// seconds) — rendered as the Chrome trace's "faults" lane.
  RecoveryReport recovery;
  std::vector<ChaosEvent> chaos_events;
  /// Flow-level network accounting (disabled/empty on flat runs); rendered
  /// as the Chrome trace's "network" lane.
  NetworkReport network;
  /// SPIN in-memory engine accounting (disabled/empty on disk-tier runs);
  /// rendered as the Chrome trace's "engine" lane.
  EngineReport engine;
  /// DFS storage-policy accounting (all-zero EC fields on replicated runs);
  /// rendered as the Chrome trace's "storage" lane.
  StorageReport storage;
  /// Data-integrity accounting (all zero with verification off and no
  /// corruption); rendered as the Chrome trace's "integrity" lane.
  IntegrityReport integrity;
  /// Kernel-engine identity and work totals (default-constructed when the
  /// caller didn't sample the kernel counters).
  KernelReport kernel;
};

/// Fills `phase_reports` and `failure_timeline` from `phases`; overwrites
/// any previous aggregation. `total_slots` must be set by the caller.
void aggregate_run_report(RunReport* report);

/// Interpolated percentile of `values` (q in [0,1]); 0.0 when empty.
double percentile(std::vector<double> values, double q);

/// Fills `request_spans`, `tenants` and `fairness_index` from per-request
/// stats (service layer); overwrites any previous aggregation. Stats must be
/// in request-id order — span names are assigned "r0", "r1", ...
void aggregate_tenant_reports(RunReport* report,
                              const std::vector<RequestStat>& stats);

/// Machine-readable run report (one JSON object; schema in README.md).
std::string run_report_json(const RunReport& report);

/// Chrome trace_event JSON: one complete ("ph":"X") event per attempt with
/// pid = node, tid = global slot, timestamps in microseconds. Additional
/// lanes: one per job (the job_spans, under a "jobs" pseudo-process, where
/// DAG-overlapped jobs visibly run concurrently), one for the master's
/// serial work (the master_spans, under a "master" pseudo-process), and —
/// on chaos runs — a "faults" pseudo-process with instant markers for
/// kills/degrades/read errors plus the recovery-wave attempt spans.
std::string chrome_trace_json(const RunReport& report);

}  // namespace mri
