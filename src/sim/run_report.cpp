#include "sim/run_report.hpp"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "common/json.hpp"

namespace mri {

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

void aggregate_run_report(RunReport* report) {
  report->phase_reports.clear();
  report->failure_timeline.clear();
  report->master_seconds = 0.0;
  for (const MasterSpan& span : report->master_spans) {
    report->master_seconds += span.end - span.start;
  }
  report->busy_slot_seconds = 0.0;
  for (const PhaseTrace& phase : report->phases) {
    for (const TaskTraceEvent& e : phase.events) {
      report->busy_slot_seconds += e.end - e.start;
    }
  }
  report->cluster_utilization =
      report->total_slots > 0 && report->sim_seconds > 0.0
          ? report->busy_slot_seconds /
                (static_cast<double>(report->total_slots) *
                 report->sim_seconds)
          : 0.0;

  for (const PhaseTrace& phase : report->phases) {
    PhaseReport pr;
    pr.job = phase.job;
    pr.phase = phase.phase;
    pr.duration = phase.duration;

    std::map<int, double> task_end;          // effective completion per task
    std::map<int, int> attempts_per_slot;
    for (const TaskTraceEvent& e : phase.events) {
      ++pr.attempts;
      if (e.failed) ++pr.failures;
      if (e.backup) ++pr.backups;
      pr.busy_seconds += e.end - e.start;
      ++attempts_per_slot[e.slot];
      // Failed attempts never complete the task; winners and truncated
      // losers share the same end, so max over the rest is the completion.
      if (!e.failed) {
        auto [it, inserted] = task_end.emplace(e.task, e.end);
        if (!inserted) it->second = std::max(it->second, e.end);
      } else {
        task_end.emplace(e.task, 0.0);  // count the task even if all failed
      }
    }
    pr.tasks = static_cast<int>(task_end.size());
    for (const auto& [slot, n] : attempts_per_slot) {
      pr.waves = std::max(pr.waves, n);
    }
    if (report->total_slots > 0 && pr.duration > 0.0) {
      pr.slot_utilization =
          pr.busy_seconds /
          (static_cast<double>(report->total_slots) * pr.duration);
    }
    std::vector<double> ends;
    ends.reserve(task_end.size());
    for (const auto& [task, end] : task_end) ends.push_back(end);
    pr.median_task_end = median_of(ends);
    pr.max_task_end = ends.empty() ? 0.0 : *std::max_element(ends.begin(),
                                                             ends.end());
    pr.straggler_ratio =
        pr.median_task_end > 0.0 ? pr.max_task_end / pr.median_task_end : 1.0;
    report->phase_reports.push_back(std::move(pr));

    // Failure-recovery timeline: each failed attempt paired with the start
    // of the next attempt of the same task.
    for (const TaskTraceEvent& e : phase.events) {
      if (!e.failed) continue;
      FailureRecovery f;
      f.job = phase.job;
      f.phase = phase.phase;
      f.task = e.task;
      f.attempt = e.attempt;
      f.node = e.node;
      f.failed_at = phase.start + e.end;
      f.retry_start = -1.0;
      for (const TaskTraceEvent& r : phase.events) {
        if (r.task == e.task && r.attempt == e.attempt + 1 && !r.backup) {
          f.retry_start = phase.start + r.start;
          break;
        }
      }
      report->failure_timeline.push_back(std::move(f));
    }
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

void aggregate_tenant_reports(RunReport* report,
                              const std::vector<RequestStat>& stats) {
  report->request_spans.clear();
  report->tenants.clear();
  report->fairness_index = 1.0;

  // Request lanes, in request-id order (the order the service assigned ids).
  report->request_spans.reserve(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const RequestStat& s = stats[i];
    RequestSpan span;
    // Built in two steps: gcc 12 false-positives -Wrestrict on the
    // `const char* + std::string&&` overload here under -O2.
    span.request = "r";
    span.request += std::to_string(i);
    span.tenant = s.tenant;
    span.arrival = s.arrival;
    span.dispatch = s.rejected ? s.arrival : s.dispatch;
    span.finish = s.rejected ? s.arrival : s.finish;
    span.rejected = s.rejected;
    report->request_spans.push_back(std::move(span));
  }

  // Group by tenant; map keeps the output deterministic (sorted by name).
  std::map<std::string, std::vector<const RequestStat*>> by_tenant;
  for (const RequestStat& s : stats) by_tenant[s.tenant].push_back(&s);

  for (const auto& [tenant, reqs] : by_tenant) {
    TenantReport tr;
    tr.tenant = tenant;
    std::vector<double> latencies;
    double wait_sum = 0.0;
    for (const RequestStat* s : reqs) {
      tr.weight = s->weight;  // identical for all of a tenant's requests
      ++tr.submitted;
      if (s->rejected) {
        ++tr.rejected;
        continue;
      }
      ++tr.admitted;
      tr.retries += s->retries;
      const double wait = s->dispatch - s->arrival;
      wait_sum += wait;
      tr.queue_wait_max = std::max(tr.queue_wait_max, wait);
      if (s->unrecoverable) {
        // Abandoned requests were dispatched and held slots until the
        // abandon time, but never produced a result; keep them out of the
        // latency percentiles and deadline accounting.
        ++tr.unrecoverable;
        tr.slot_seconds += s->slot_seconds;
        continue;
      }
      latencies.push_back(s->finish - s->arrival);
      tr.slot_seconds += s->slot_seconds;
      if (s->deadline_seconds > 0.0 &&
          s->finish > s->arrival + s->deadline_seconds) {
        ++tr.deadline_misses;
      }
    }
    if (tr.admitted > 0) wait_sum /= tr.admitted;
    tr.queue_wait_mean = wait_sum;
    tr.latency_p50 = percentile(latencies, 0.50);
    tr.latency_p95 = percentile(latencies, 0.95);
    tr.latency_p99 = percentile(latencies, 0.99);
    report->tenants.push_back(std::move(tr));
  }

  // Jain's fairness index over x_i = slot_seconds_i / weight_i, counting
  // only tenants that actually ran work (an idle tenant is not unfairness).
  std::vector<double> shares;
  for (const TenantReport& tr : report->tenants) {
    if (tr.slot_seconds > 0.0 && tr.weight > 0) {
      shares.push_back(tr.slot_seconds / tr.weight);
    }
  }
  if (shares.size() > 1) {
    double sum = 0.0, sum_sq = 0.0;
    for (double x : shares) {
      sum += x;
      sum_sq += x * x;
    }
    report->fairness_index =
        sum_sq > 0.0
            ? (sum * sum) / (static_cast<double>(shares.size()) * sum_sq)
            : 1.0;
  }
}


namespace {

void write_io(JsonWriter& w, std::string_view key, const IoStats& io) {
  w.key(key).begin_object()
      .field("bytes_written", io.bytes_written)
      .field("bytes_read", io.bytes_read)
      .field("bytes_transferred", io.bytes_transferred)
      .field("bytes_replicated", io.bytes_replicated)
      .field("bytes_written_memory", io.bytes_written_memory)
      .field("bytes_read_memory", io.bytes_read_memory)
      .field("bytes_spilled", io.bytes_spilled)
      .field("bytes_parity", io.bytes_parity)
      .field("bytes_reconstructed", io.bytes_reconstructed)
      .field("degraded_reads", io.degraded_reads)
      .field("mults", io.mults)
      .field("adds", io.adds)
      .end_object();
}

/// `key`: an array with one object per item, its members written by
/// `fields(item)`.
template <typename T, typename Fields>
void write_list(JsonWriter& w, std::string_view key,
                const std::vector<T>& items, Fields fields) {
  w.key(key).begin_array();
  for (const T& item : items) {
    w.begin_object();
    fields(item);
    w.end_object();
  }
  w.end_array();
}

const char* chaos_kind_name(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kKillNode: return "kill";
    case ChaosEventKind::kDegradeNode: return "degrade";
    case ChaosEventKind::kCorruptBlock: return "corrupt_block";
    case ChaosEventKind::kBlockReadError: break;
  }
  return "read_error";
}

}  // namespace

std::string run_report_json(const RunReport& report) {
  JsonWriter w;
  w.begin_object()
      .field("sim_seconds", report.sim_seconds)
      .field("jobs", report.jobs)
      .field("failures_recovered", report.failures_recovered)
      .field("backups_run", report.backups_run)
      .field("total_slots", report.total_slots)
      .field("busy_slot_seconds", report.busy_slot_seconds)
      .field("cluster_utilization", report.cluster_utilization);
  write_io(w, "io", report.io);
  w.key("shuffle").begin_object()
      .field("local_bytes", report.shuffle_local_bytes)
      .field("remote_bytes", report.shuffle_remote_bytes)
      .end_object();
  write_io(w, "dfs_io", report.dfs_io);

  // Every section below is always present (stable schema): disabled, zero
  // and empty on runs that never touched its subsystem.
  const NetworkReport& net = report.network;
  w.key("network").begin_object()
      .field("enabled", net.enabled)
      .field("topology", net.topology)
      .field("racks", net.racks)
      .field("oversubscription", net.oversubscription)
      .field("rack_aware_placement", net.rack_aware_placement)
      .field("node_local_bytes", net.node_local_bytes)
      .field("rack_local_bytes", net.rack_local_bytes)
      .field("cross_rack_bytes", net.cross_rack_bytes)
      .field("rack_local_attempts", net.rack_local_attempts)
      .field("cross_rack_attempts", net.cross_rack_attempts);
  write_list(w, "links", net.links, [&w](const LinkReport& l) {
    w.field("name", l.name)
        .field("bytes", l.bytes)
        .field("busy_seconds", l.busy_seconds)
        .field("peak_utilization", l.peak_utilization);
  });
  w.end_object();

  const RecoveryReport& rec = report.recovery;
  w.key("recovery").begin_object()
      .field("nodes_killed", rec.nodes_killed)
      .field("nodes_degraded", rec.nodes_degraded)
      .field("read_errors_injected", rec.read_errors_injected)
      .field("read_errors_survived", rec.read_errors_survived)
      .field("tasks_recomputed", rec.tasks_recomputed)
      .field("attempts_killed", rec.attempts_killed)
      .field("re_replicated_bytes", rec.re_replicated_bytes)
      .field("re_replicated_blocks", rec.re_replicated_blocks)
      .field("blocks_lost", rec.blocks_lost)
      .field("re_replication_seconds", rec.re_replication_seconds)
      .field("recovery_seconds", rec.recovery_seconds)
      .field("request_retries", rec.request_retries)
      .field("requests_unrecoverable", rec.requests_unrecoverable)
      .field("partitions_recomputed", rec.partitions_recomputed)
      .field("lineage_waves", rec.lineage_waves)
      .field("lineage_recompute_seconds", rec.lineage_recompute_seconds)
      .field("lineage_recomputed_bytes", rec.lineage_recomputed_bytes)
      .field("ec_cells_reconstructed", rec.ec_cells_reconstructed)
      .field("ec_reconstructed_bytes", rec.ec_reconstructed_bytes);
  write_io(w, "recovery_io", rec.recovery_io);
  w.end_object();

  const EngineReport& eng = report.engine;
  w.key("engine").begin_object()
      .field("enabled", eng.enabled)
      .key("cache").begin_object()
      .field("insertions", eng.cache_insertions)
      .field("evictions", eng.cache_evictions)
      .field("hits", eng.cache_hits)
      .field("resident_bytes", eng.cache_resident_bytes)
      .field("peak_resident_bytes", eng.cache_peak_resident_bytes)
      .field("spilled_bytes", eng.spilled_bytes)
      .end_object()
      .field("tracked_partitions", eng.tracked_partitions)
      .field("partitions_recomputed", eng.partitions_recomputed)
      .field("lineage_waves", eng.lineage_waves)
      .field("recompute_seconds", eng.recompute_seconds)
      .field("recomputed_bytes", eng.recomputed_bytes)
      .field("lineage_stall_seconds", eng.lineage_stall_seconds);
  write_list(w, "spills", eng.spills, [&w](const EngineSpillSpan& s) {
    w.field("at", s.at).field("path", s.path).field("bytes", s.bytes);
  });
  write_list(w, "recomputes", eng.recomputes,
             [&w](const EngineRecomputeSpan& r) {
               w.field("at", r.at)
                   .field("duration", r.duration)
                   .field("wave", r.wave)
                   .field("path", r.path)
                   .field("bytes", r.bytes);
             });
  w.end_object();

  const StorageReport& sto = report.storage;
  w.key("storage").begin_object()
      .field("policy", sto.policy)
      .field("ec_k", sto.ec_k)
      .field("ec_m", sto.ec_m)
      .field("logical_bytes", sto.logical_bytes)
      .field("physical_bytes", sto.physical_bytes)
      .field("physical_overhead", sto.physical_overhead)
      .field("parity_bytes", sto.parity_bytes)
      .field("reconstructed_bytes", sto.reconstructed_bytes)
      .field("degraded_reads", sto.degraded_reads)
      .field("cells_reconstructed", sto.cells_reconstructed)
      .key("hot_cache").begin_object()
      .field("capacity_bytes", sto.hot_cache_capacity_bytes)
      .field("resident_bytes", sto.hot_cache_resident_bytes)
      .field("resident_files", sto.hot_cache_resident_files)
      .field("hits", sto.hot_cache_hits)
      .field("hit_bytes", sto.hot_cache_hit_bytes)
      .end_object();
  write_list(w, "reconstructions", sto.reconstructions,
             [&w](const StorageReconstruction& r) {
               w.field("at", r.at)
                   .field("node", r.node)
                   .field("cells", r.cells)
                   .field("bytes", r.bytes)
                   .field("seconds", r.seconds);
             });
  w.end_object();

  const IntegrityReport& integ = report.integrity;
  w.key("integrity").begin_object()
      .field("verify_checksums", integ.verify_checksums)
      .field("scrub_interval_seconds", integ.scrub_interval_seconds)
      .field("cells_checksummed", integ.cells_checksummed)
      .field("cells_verified", integ.cells_verified)
      .field("bytes_verified", integ.bytes_verified)
      .field("corruptions_injected", integ.corruptions_injected)
      .field("corruptions_detected", integ.corruptions_detected)
      .field("cells_repaired_copy", integ.cells_repaired_copy)
      .field("cells_repaired_ec", integ.cells_repaired_ec)
      .field("cells_repaired_lineage", integ.cells_repaired_lineage)
      .field("cells_quarantined", integ.cells_quarantined)
      .field("scrub_passes", integ.scrub_passes)
      .field("scrub_bytes_scanned", integ.scrub_bytes_scanned)
      .field("scrub_seconds", integ.scrub_seconds);
  write_list(w, "repairs", integ.repairs, [&w](const IntegrityRepairSpan& r) {
    w.field("at", r.at)
        .field("node", r.node)
        .field("path", r.path)
        .field("cell", r.cell)
        .field("bytes", r.bytes)
        .field("kind", r.kind)
        .field("by_scrubber", r.by_scrubber);
  });
  write_list(w, "scrubs", integ.scrub_spans, [&w](const ScrubPassSpan& s) {
    w.field("at", s.at)
        .field("seconds", s.seconds)
        .field("bytes_scanned", s.bytes_scanned)
        .field("cells_verified", s.cells_verified)
        .field("cells_repaired", s.cells_repaired);
  });
  w.end_object();

  // Wall-clock kernel timings (kernel_seconds / achieved_gflops) are
  // intentionally NOT written: they vary per host, and same-seed reports
  // must stay bit-identical.
  const KernelReport& ker = report.kernel;
  w.key("kernel").begin_object()
      .field("backend", ker.backend)
      .field("multiply_strategy", ker.multiply_strategy)
      .field("replication", ker.replication)
      .field("multiply_rounds", ker.multiply_rounds)
      .field("gemm_calls", ker.gemm_calls)
      .field("trsm_calls", ker.trsm_calls)
      .field("kernel_flops", ker.kernel_flops)
      .end_object();

  write_list(w, "chaos_events", report.chaos_events, [&w](const ChaosEvent& e) {
    w.field("kind", chaos_kind_name(e.kind))
        .field("at", e.at)
        .field("node", e.node)
        .field("factor", e.factor);
  });
  w.key("counters").begin_object();
  for (const auto& [name, value] : report.counters) w.field(name, value);
  w.end_object();
  write_list(w, "phases", report.phase_reports, [&w](const PhaseReport& p) {
    w.field("job", p.job)
        .field("phase", p.phase)
        .field("tasks", p.tasks)
        .field("attempts", p.attempts)
        .field("failures", p.failures)
        .field("backups", p.backups)
        .field("waves", p.waves)
        .field("duration", p.duration)
        .field("busy_seconds", p.busy_seconds)
        .field("slot_utilization", p.slot_utilization)
        .field("median_task_end", p.median_task_end)
        .field("max_task_end", p.max_task_end)
        .field("straggler_ratio", p.straggler_ratio);
  });
  write_list(w, "job_spans", report.job_spans, [&w](const JobSpan& s) {
    w.field("job", s.job).field("start", s.start).field("end", s.end);
  });
  w.key("master").begin_object().field("seconds", report.master_seconds);
  write_list(w, "spans", report.master_spans, [&w](const MasterSpan& s) {
    w.field("start", s.start).field("end", s.end);
  });
  w.end_object();
  write_list(w, "failure_timeline", report.failure_timeline,
             [&w](const FailureRecovery& f) {
               w.field("job", f.job)
                   .field("phase", f.phase)
                   .field("task", f.task)
                   .field("attempt", f.attempt)
                   .field("node", f.node)
                   .field("failed_at", f.failed_at)
                   .field("retry_start", f.retry_start);
             });
  // Service-layer keys: both arrays are empty for single-run reports.
  w.field("fairness_index", report.fairness_index);
  write_list(w, "tenants", report.tenants, [&w](const TenantReport& t) {
    w.field("tenant", t.tenant)
        .field("weight", t.weight)
        .field("submitted", t.submitted)
        .field("admitted", t.admitted)
        .field("rejected", t.rejected)
        .field("queue_wait_mean", t.queue_wait_mean)
        .field("queue_wait_max", t.queue_wait_max)
        .field("latency_p50", t.latency_p50)
        .field("latency_p95", t.latency_p95)
        .field("latency_p99", t.latency_p99)
        .field("slot_seconds", t.slot_seconds)
        .field("deadline_misses", t.deadline_misses)
        .field("retries", t.retries)
        .field("unrecoverable", t.unrecoverable);
  });
  write_list(w, "requests", report.request_spans, [&w](const RequestSpan& r) {
    w.field("request", r.request)
        .field("tenant", r.tenant)
        .field("arrival", r.arrival)
        .field("dispatch", r.dispatch)
        .field("finish", r.finish)
        .field("rejected", r.rejected);
  });
  w.end_object();
  return w.str();
}

namespace {

/// Chrome trace_event writer: names processes and writes complete ("X")
/// and instant ("i") events, converting simulated seconds to the format's
/// microseconds. `args(w)` writes the members of the event's args object.
class TraceWriter {
 public:
  explicit TraceWriter(JsonWriter& w) : w_(w) {}

  /// Labels process `pid` — a node, or one of the run-level pseudo-process
  /// lanes — in the viewer.
  void process(int pid, std::string_view name) {
    w_.begin_object()
        .field("ph", "M")
        .field("name", "process_name")
        .field("pid", pid)
        .key("args").begin_object().field("name", name).end_object()
        .end_object();
  }

  /// A complete event covering [start, start + dur) simulated seconds.
  template <typename Args>
  void span(int pid, std::int64_t tid, std::string_view name,
            std::string_view cat, double start, double dur, Args args) {
    head("X", pid, tid, name, cat, start);
    w_.field("dur", dur * 1e6);
    tail(args);
  }

  /// An instant event at `at` seconds; `scope` is "t" (thread) or "g"
  /// (global).
  template <typename Args>
  void instant(int pid, std::int64_t tid, std::string_view name,
               std::string_view cat, double at, std::string_view scope,
               Args args) {
    head("i", pid, tid, name, cat, at);
    w_.field("s", scope);
    tail(args);
  }

 private:
  void head(std::string_view ph, int pid, std::int64_t tid,
            std::string_view name, std::string_view cat, double at) {
    w_.begin_object()
        .field("ph", ph)
        .field("name", name)
        .field("cat", cat)
        .field("pid", pid)
        .field("tid", tid)
        .field("ts", at * 1e6);
  }

  template <typename Args>
  void tail(Args& args) {
    w_.key("args").begin_object();
    args(w_);
    w_.end_object().end_object();
  }

  JsonWriter& w_;
};

// Pseudo-process ids for the run-level lanes, far above any node id.
enum LanePid : int {
  kJobsPid = 1000000,
  kMasterPid,
  kRequestsPid,
  kFaultsPid,
  kNetworkPid,
  kEnginePid,
  kStoragePid,
  kIntegrityPid,
};

const char* chaos_event_label(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kKillNode: return "kill node ";
    case ChaosEventKind::kDegradeNode: return "degrade node ";
    case ChaosEventKind::kCorruptBlock: return "corrupt block node ";
    case ChaosEventKind::kBlockReadError: break;
  }
  return "read error node ";
}

std::string label(std::string_view prefix, std::string_view rest) {
  std::string out(prefix);
  out += rest;
  return out;
}

/// "<job>/<phase> t<task>", the label of a task's attempts.
std::string task_label(const PhaseTrace& phase, int task) {
  std::string out = label(phase.job, "/");
  out += phase.phase;
  out += " t";
  out += std::to_string(task);
  return out;
}

}  // namespace

std::string chrome_trace_json(const RunReport& report) {
  JsonWriter w;
  TraceWriter t(w);
  const auto no_args = [](JsonWriter&) {};
  w.begin_array();
  std::map<int, bool> nodes_seen;
  for (const PhaseTrace& phase : report.phases) {
    for (const TaskTraceEvent& e : phase.events) nodes_seen[e.node] = true;
  }
  for (const auto& [node, seen] : nodes_seen) {
    t.process(node, label("node ", std::to_string(node)));
  }
  // One lane (tid) per job: overlap-scheduled jobs render side by side.
  if (!report.job_spans.empty()) {
    t.process(kJobsPid, "jobs");
    std::int64_t lane = 0;
    for (const JobSpan& s : report.job_spans) {
      t.span(kJobsPid, lane++, s.job, "job", s.start, s.end - s.start,
             no_args);
    }
  }
  if (!report.master_spans.empty()) {
    t.process(kMasterPid, "master");
    for (const MasterSpan& s : report.master_spans) {
      t.span(kMasterPid, 0, "master work", "master", s.start, s.end - s.start,
             [&s](JsonWriter& a) {
               a.field("mults", s.io.mults).field("bytes_read", s.io.bytes_read);
             });
    }
  }
  // One lane per request: queued (arrival->dispatch) then run
  // (dispatch->finish); rejected requests render as instant markers.
  if (!report.request_spans.empty()) {
    t.process(kRequestsPid, "requests");
    std::int64_t lane = 0;
    for (const RequestSpan& r : report.request_spans) {
      const auto tenant = [&r](JsonWriter& a) { a.field("tenant", r.tenant); };
      if (r.rejected) {
        t.instant(kRequestsPid, lane, r.request + " rejected", "request",
                  r.arrival, "t", tenant);
      } else {
        t.span(kRequestsPid, lane, r.request + " queued", "request",
               r.arrival, r.dispatch - r.arrival, tenant);
        t.span(kRequestsPid, lane, r.request + " run", "request", r.dispatch,
               r.finish - r.dispatch, tenant);
      }
      ++lane;
    }
  }
  // Fault lane: every chaos event that fired, as an instant marker, plus
  // the recovery-wave attempts as spans (mirrored from their node lanes so
  // the damage and the repair read side by side).
  const bool any_recovery = [&report] {
    for (const PhaseTrace& phase : report.phases) {
      for (const TaskTraceEvent& e : phase.events) {
        if (e.recovery) return true;
      }
    }
    return false;
  }();
  if (!report.chaos_events.empty() || any_recovery) {
    t.process(kFaultsPid, "faults");
    for (const ChaosEvent& e : report.chaos_events) {
      t.instant(kFaultsPid, 0,
                label(chaos_event_label(e.kind), std::to_string(e.node)),
                "chaos", e.at, "g", [&e](JsonWriter& a) {
        a.field("node", e.node).field("factor", e.factor);
      });
    }
    for (const PhaseTrace& phase : report.phases) {
      for (const TaskTraceEvent& e : phase.events) {
        if (!e.recovery) continue;
        t.span(kFaultsPid, 1, label("recompute ", task_label(phase, e.task)),
               "recovery", phase.start + e.start, e.end - e.start,
               [&e](JsonWriter& a) {
                 a.field("task", e.task).field("node", e.node);
               });
      }
    }
  }
  // Network lane: per phase, one span per link that carried traffic, over
  // the phase's extent; args carry the link's bytes/busy/peak so hovering a
  // span shows where the phase's traffic concentrated.
  const bool any_link_loads = [&report] {
    for (const PhaseTrace& phase : report.phases) {
      for (const LinkReport& l : phase.link_loads) {
        if (l.bytes > 0) return true;
      }
    }
    return false;
  }();
  if (any_link_loads) {
    t.process(kNetworkPid, "network");
    for (const PhaseTrace& phase : report.phases) {
      for (std::size_t i = 0; i < phase.link_loads.size(); ++i) {
        const LinkReport& l = phase.link_loads[i];
        if (l.bytes == 0) continue;
        std::string name = l.name;
        if (name.empty() && i < report.network.links.size()) {
          name = report.network.links[i].name;
        }
        if (name.empty()) name = label("link ", std::to_string(i));
        t.span(kNetworkPid, static_cast<std::int64_t>(i), name, "network",
               phase.start, phase.duration, [&l](JsonWriter& a) {
                 a.field("bytes", l.bytes)
                     .field("busy_seconds", l.busy_seconds)
                     .field("peak_utilization", l.peak_utilization);
               });
      }
    }
  }
  // Engine lane: cache spills as instant markers (tid 0) and lineage
  // recomputations as spans stacked by recovery wave (tid 1 + wave), so a
  // node kill's rebuild reads next to the faults lane it responds to.
  if (!report.engine.spills.empty() || !report.engine.recomputes.empty()) {
    t.process(kEnginePid, "engine");
    for (const EngineSpillSpan& s : report.engine.spills) {
      t.instant(kEnginePid, 0, label("spill ", s.path), "engine", s.at, "t",
                [&s](JsonWriter& a) { a.field("bytes", s.bytes); });
    }
    for (const EngineRecomputeSpan& r : report.engine.recomputes) {
      t.span(kEnginePid, 1 + r.wave, label("recompute ", r.path), "engine", r.at,
             r.duration, [&r](JsonWriter& a) {
               a.field("wave", r.wave).field("bytes", r.bytes);
             });
    }
  }
  // Storage lane: one span per EC stripe reconstruction, stacked in kill
  // order, so decode-based repair reads next to the faults lane that
  // triggered it.
  if (!report.storage.reconstructions.empty()) {
    t.process(kStoragePid, "storage");
    std::int64_t lane = 0;
    for (const StorageReconstruction& r : report.storage.reconstructions) {
      t.span(kStoragePid, lane++,
             label("reconstruct node ", std::to_string(r.node)), "storage", r.at, r.seconds,
             [&r](JsonWriter& a) {
               a.field("node", r.node)
                   .field("cells", r.cells)
                   .field("bytes", r.bytes);
             });
    }
  }
  // Integrity lane: scrubber passes as spans (tid 0) and individual repairs
  // as instant markers (tid 1), so detection-and-repair reads next to the
  // faults lane that injected the corruption.
  if (!report.integrity.repairs.empty() ||
      !report.integrity.scrub_spans.empty()) {
    t.process(kIntegrityPid, "integrity");
    for (const ScrubPassSpan& s : report.integrity.scrub_spans) {
      t.span(kIntegrityPid, 0, "scrub pass", "integrity", s.at, s.seconds,
             [&s](JsonWriter& a) {
               a.field("bytes_scanned", s.bytes_scanned)
                   .field("cells_verified", s.cells_verified)
                   .field("cells_repaired", s.cells_repaired);
             });
    }
    for (const IntegrityRepairSpan& r : report.integrity.repairs) {
      t.instant(kIntegrityPid, 1, label("repair ", r.kind + ' ' + r.path),
                "integrity", r.at, "t", [&r](JsonWriter& a) {
                  a.field("node", r.node)
                      .field("path", r.path)
                      .field("cell", r.cell)
                      .field("bytes", r.bytes)
                      .field("by_scrubber", r.by_scrubber);
                });
    }
  }
  for (const PhaseTrace& phase : report.phases) {
    for (const TaskTraceEvent& e : phase.events) {
      std::string name = task_label(phase, e.task);
      name += " a";
      name += std::to_string(e.attempt);
      name += e.recovery ? " (recovery)"
              : e.chaos  ? " (node lost)"
              : e.backup ? " (backup)"
              : e.failed ? " (failed)"
                         : "";
      t.span(e.node, e.slot, name, phase.phase, phase.start + e.start,
             e.end - e.start, [&e](JsonWriter& a) {
               a.field("task", e.task)
                   .field("attempt", e.attempt)
                   .field("failed", e.failed)
                   .field("backup", e.backup)
                   .field("chaos", e.chaos)
                   .field("recovery", e.recovery);
             });
    }
  }
  w.end_array();
  return w.str();
}

}  // namespace mri
