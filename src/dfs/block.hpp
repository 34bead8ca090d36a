// DFS data blocks.
//
// A file is a sequence of blocks; each block's payload is stored once and
// shared (shared_ptr) between its replicas — replication is placement
// metadata plus accounted network/disk cost, not a physical copy, which keeps
// the simulator's memory footprint equal to the logical data size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mri::dfs {

using BlockId = std::uint64_t;
using BlockData = std::shared_ptr<const std::vector<std::byte>>;

/// Where a file's payload lives. kMemory models the §8 Spark-style
/// extension: a single unreplicated in-memory copy (lineage, not
/// replication, provides fault tolerance), charged at memory bandwidth on
/// write. Tracked per file by the namenode; spill flips a file back to
/// kDisk without moving its payload.
enum class StorageTier { kDisk, kMemory };

struct BlockLocation {
  BlockId id = 0;
  std::uint64_t length = 0;
  /// The block's slots: the datanode each one lives on. For copies, one
  /// entry per replica (first = primary; a dead holder is erased). For an
  /// erasure-coded block (one block = one RS stripe) exactly ec_k + ec_m
  /// entries: slot i holds stripe cell i (first ec_k data cells, then ec_m
  /// parity cells). Slot position IS the cell identity, so a lost cell is
  /// marked with -1, never erased.
  std::vector<int> replicas;
  /// RS stripe shape; 0,0 means a plain replicated block.
  int ec_k = 0;
  int ec_m = 0;

  bool is_ec() const { return ec_k > 0; }
  /// Per-cell payload length: the block payload split into ec_k equal cells
  /// (last one zero-padded to this size).
  std::uint64_t cell_bytes() const {
    return is_ec() ? (length + static_cast<std::uint64_t>(ec_k) - 1) /
                         static_cast<std::uint64_t>(ec_k)
                   : length;
  }
};

}  // namespace mri::dfs
