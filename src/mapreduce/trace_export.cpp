#include "mapreduce/trace_export.hpp"

#include <algorithm>

#include "net/topology.hpp"

namespace mri::mr {

namespace {

/// LinkLoad (simulator type) -> LinkReport (report type). Names are left
/// empty in per-phase lanes; the run-level NetworkReport carries them.
std::vector<LinkReport> to_link_reports(
    const std::vector<net::LinkLoad>& loads) {
  std::vector<LinkReport> out(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    out[i].bytes = loads[i].bytes;
    out[i].busy_seconds = loads[i].busy_seconds;
    out[i].peak_utilization = loads[i].peak_utilization;
  }
  return out;
}

/// A job's launch overhead: sim_seconds = launch + map + recovery stall +
/// reduce, so the launch is the remainder. The map phase starts once the
/// job is launched.
double launch_seconds(const JobResult& job) {
  return std::max(0.0, job.sim_seconds - job.map_phase_seconds -
                           job.recovery_seconds - job.reduce_phase_seconds);
}

}  // namespace

std::vector<PhaseTrace> phase_traces(const std::vector<JobResult>& jobs) {
  std::vector<PhaseTrace> phases;
  phases.reserve(jobs.size() * 2);
  for (const JobResult& job : jobs) {
    // Recovery-wave re-executions ride in map_trace (their events start
    // after the nominal phase end) and the reduce phase starts only after
    // the stall.
    const double launch = launch_seconds(job);
    if (!job.map_trace.empty()) {
      PhaseTrace p;
      p.job = job.name;
      p.phase = "map";
      p.start = job.start_seconds + launch;
      p.duration = job.map_phase_seconds + job.recovery_seconds;
      p.events = job.map_trace;
      p.link_loads = to_link_reports(job.map_link_loads);
      phases.push_back(std::move(p));
    }
    if (!job.reduce_trace.empty()) {
      PhaseTrace p;
      p.job = job.name;
      p.phase = "reduce";
      p.start = job.start_seconds + launch + job.map_phase_seconds +
                job.recovery_seconds;
      p.duration = job.reduce_phase_seconds;
      p.events = job.reduce_trace;
      p.link_loads = to_link_reports(job.reduce_link_loads);
      phases.push_back(std::move(p));
    }
  }
  return phases;
}

RunReport build_run_report(const std::vector<JobResult>& jobs,
                           const Cluster& cluster,
                           const MetricsRegistry* metrics,
                           const std::vector<MasterSpan>& master_spans,
                           const ChaosEngine* chaos,
                           const EngineReport* engine,
                           const dfs::Dfs* fs) {
  RunReport report;
  report.total_slots = cluster.total_slots();
  report.jobs = static_cast<int>(jobs.size());
  for (const JobResult& job : jobs) {
    report.sim_seconds = std::max(
        report.sim_seconds, job.start_seconds + job.sim_seconds);
    report.io += job.io;
    report.failures_recovered += job.failures_recovered;
    report.backups_run += job.backups_run;
    report.shuffle_local_bytes += job.shuffle_local_bytes;
    report.shuffle_remote_bytes += job.shuffle_remote_bytes;
    report.recovery.tasks_recomputed += job.tasks_recomputed;
    report.recovery.attempts_killed += job.chaos_attempts_killed;
    report.recovery.recovery_io += job.recovery_io;
    report.recovery.recovery_seconds += job.recovery_seconds;
    JobSpan span;
    span.job = job.name;
    span.start = job.start_seconds;
    span.end = job.start_seconds + job.sim_seconds;
    report.job_spans.push_back(std::move(span));
  }
  // The master lane stretches the timeline but its footprint stays out of
  // report.io, which remains the job-side total it always was (pipeline
  // totals already charge master work separately).
  report.master_spans = master_spans;
  for (const MasterSpan& span : master_spans) {
    report.sim_seconds = std::max(report.sim_seconds, span.end);
  }
  if (metrics != nullptr) {
    report.dfs_io = metrics->io_totals();
    report.counters = metrics->counters();
    const auto survived = report.counters.find("dfs_read_errors_survived");
    if (survived != report.counters.end()) {
      report.recovery.read_errors_survived = survived->second;
    }
  }
  if (chaos != nullptr) {
    static_cast<RecoveryStats&>(report.recovery) = chaos->stats();
    // Only events that actually fired within the run belong on the faults
    // lane; the schedule may extend past the point the run ended.
    for (const ChaosEvent& e : chaos->events()) {
      if (e.at <= report.sim_seconds) report.chaos_events.push_back(e);
    }
  }
  // Flow-level network section: configuration from the cluster's topology,
  // per-link totals and locality counters summed over the jobs.
  const net::Topology* topo = cluster.topology().get();
  if (topo != nullptr && topo->racked()) {
    report.network.enabled = true;
    report.network.topology = "racked";
    report.network.racks = topo->racks();
    report.network.oversubscription = topo->options().oversubscription;
    report.network.rack_aware_placement =
        topo->options().rack_aware_placement;
    report.network.links.resize(static_cast<std::size_t>(topo->num_links()));
    for (int l = 0; l < topo->num_links(); ++l) {
      report.network.links[static_cast<std::size_t>(l)].name =
          topo->link_name(l);
    }
  }
  for (const JobResult& job : jobs) {
    report.network.node_local_bytes += job.net_node_local_bytes;
    report.network.rack_local_bytes += job.net_rack_local_bytes;
    report.network.cross_rack_bytes += job.net_cross_rack_bytes;
    report.network.rack_local_attempts += job.rack_local_attempts;
    report.network.cross_rack_attempts += job.cross_rack_attempts;
    for (const auto* loads : {&job.map_link_loads, &job.reduce_link_loads}) {
      for (std::size_t i = 0;
           i < loads->size() && i < report.network.links.size(); ++i) {
        LinkReport& l = report.network.links[i];
        l.bytes += (*loads)[i].bytes;
        l.busy_seconds += (*loads)[i].busy_seconds;
        l.peak_utilization =
            std::max(l.peak_utilization, (*loads)[i].peak_utilization);
      }
    }
  }
  // SPIN engine section. A spill happens inside SpinEngine::begin_job of
  // the admitting job, so its marker lands at that job's map-phase start.
  if (engine != nullptr) {
    report.engine = *engine;
    for (const JobResult& job : jobs) {
      report.engine.lineage_stall_seconds += job.lineage_stall_seconds;
    }
    for (EngineSpillSpan& s : report.engine.spills) {
      if (s.job_ordinal < 1 || s.job_ordinal > jobs.size()) continue;
      const JobResult& job = jobs[s.job_ordinal - 1];
      s.at = job.start_seconds + launch_seconds(job);
    }
  }
  // Storage and integrity sections from the filesystem; the storage
  // traffic totals come from the DFS-side metrics.
  if (fs != nullptr) {
    report.storage = fs->storage_report();
    report.storage.parity_bytes = report.dfs_io.bytes_parity;
    report.storage.reconstructed_bytes = report.dfs_io.bytes_reconstructed;
    report.storage.degraded_reads = report.dfs_io.degraded_reads;
    const auto cells = report.counters.find("dfs_ec_cells_reconstructed");
    if (cells != report.counters.end()) {
      report.storage.cells_reconstructed = cells->second;
    }
    report.integrity = fs->integrity_report();
  }
  report.phases = phase_traces(jobs);
  aggregate_run_report(&report);
  return report;
}

}  // namespace mri::mr
