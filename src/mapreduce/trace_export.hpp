// Bridge from executed MapReduce jobs to the sim-layer run report: lays the
// jobs' per-attempt traces onto the run timeline (job launch overhead, then
// map phase, then reduce phase) and aggregates wave/utilization/straggler
// statistics plus the failure-recovery timeline.
#pragma once

#include <vector>

#include "dfs/dfs.hpp"
#include "mapreduce/job.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/run_report.hpp"

namespace mri::mr {

/// Run-relative phase traces for a sequence of jobs (one PhaseTrace per
/// non-empty phase). Jobs must carry the start_seconds stamped by Pipeline.
std::vector<PhaseTrace> phase_traces(const std::vector<JobResult>& jobs);

/// Builds and aggregates the full run report. `metrics` (DFS-side totals and
/// named counters) may be null. `master_spans` (Pipeline::master_spans())
/// adds the master's serial-work lane; omit it for job-only reports.
/// Each optional subsystem fills its section with the record it kept:
/// `chaos` the chaos half of report.recovery (the job-side half is summed
/// from the JobResults) and report.chaos_events with the events that fired
/// within the run; `engine` (SpinEngine::stats(), SPIN runs) report.engine,
/// whose spills' job ordinals are mapped onto the admitting job's map-phase
/// start (ordinals align with `jobs` order: every job calls
/// SpinEngine::begin_job exactly once, in execution order); `fs`
/// report.storage and report.integrity.
RunReport build_run_report(
    const std::vector<JobResult>& jobs, const Cluster& cluster,
    const MetricsRegistry* metrics,
    const std::vector<MasterSpan>& master_spans = {},
    const ChaosEngine* chaos = nullptr, const EngineReport* engine = nullptr,
    const dfs::Dfs* fs = nullptr);

}  // namespace mri::mr
