// Per-layer rate replays for the traced run.
//
// Each replay calls one layer's public function at the operand shapes and
// sizes its workload produces, on one thread (the pool replay uses four),
// and reports work per second of steady wall-clock time: the median of
// repeated timed calls, never CPU time.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"

namespace perfbench {

/// The shapes one workload hands each layer.
struct ReplayShape {
  int nodes = 8;
  bool racked = false;
  bool verify_checksums = false;
  std::uint64_t cache_bytes_per_node = 0;  // 0 = unlimited
  /// Square GEMM / GEMM-bt / TRSM tile and the order of the upper-
  /// triangular inversion.
  std::int64_t tile = 64;
  /// Leaf LU order (the workload's nb).
  std::int64_t lu_order = 64;
  /// invert_lower_columns: an n x n L, every m0-th column (one final-stage
  /// task's interleaved column set).
  std::int64_t tri_n = 256;
  int tri_m0 = 8;
  /// One DFS file (also the EC stripe: cell = file / k).
  std::uint64_t file_bytes = 1 << 20;
  /// Tasks in one phase (scheduler and flow replays): the workload's mean
  /// attempts per job, at least one per node.
  int phase_tasks = 8;
  std::uint64_t seed = 1;
};

/// Flop conventions, stated once: GEMM and GEMM-bt 2·m·n·k; TRSM m·m·n (the
/// library's own counter convention); LU 2·n³/3; lower-triangular column
/// inversion Σ (n − j)² over the inverted columns j; upper-triangular
/// inversion n³/3 (all columns).
std::map<std::string, double> replay_layers(const ReplayShape& shape,
                                            SpanRecorder& spans);

}  // namespace perfbench
