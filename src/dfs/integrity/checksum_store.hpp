// Per-block checksum registry and corruption bookkeeping.
//
// The DFS keeps one payload object per block and shares it across replicas
// (replication is metadata, not copies), so a corrupted *replica* cannot be
// modelled by mutating bytes — it is a per-(block, node) mark. The store
// maps every committed block to its expected per-cell CRC32C values (one
// cell for replicated blocks, k+m cells for an erasure-coded stripe) and
// tracks which (block, node) copies have been silently corrupted by chaos.
//
// A read that lands on a marked copy *succeeds* — that is the point of
// silent corruption. With verification off the reader receives a
// deterministic bit-flipped view of the payload (corrupt_copy); with
// verification on the Dfs detects the mark and read-repairs the bad copy
// (clearing the mark models rewriting good bytes over the quarantined
// copy), and the scrubber finds it by recomputing the CRC.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dfs/block.hpp"

namespace mri::dfs {

/// A silently corrupted (block, node) copy: when it happened and the RNG
/// salt that makes the bit-flip pattern deterministic per event.
struct CorruptMark {
  std::uint64_t salt = 0;
  double at = 0.0;
};

/// Thread-safe map of block -> expected cell CRCs plus corrupt-copy marks.
class ChecksumStore {
 public:
  /// Records the expected CRCs for a freshly committed block (replaces any
  /// previous entry — overwrite commits new payloads under the same path).
  void record(BlockId block, std::vector<std::uint32_t> cell_crcs);

  /// Drops a removed block's checksums and any marks on its copies.
  void forget(BlockId block);

  /// Expected CRC of `cell` (0 for replicated blocks), or nullopt when the
  /// block was committed before checksumming was enabled.
  std::optional<std::uint32_t> expected(BlockId block, int cell) const;

  /// Marks the copy of `block` on `node` as silently corrupted. Returns
  /// false when the copy was already marked (first corruption wins: the
  /// copy is already bad and the original salt keeps the bit pattern
  /// stable, so a repeat hit changes nothing observable).
  bool mark_corrupt(BlockId block, int node, std::uint64_t salt, double at);

  /// The corruption mark on (block, node), if any.
  std::optional<CorruptMark> corrupt_mark(BlockId block, int node) const;

  /// Clears a mark after repair. Returns false if none was present.
  bool clear_corrupt(BlockId block, int node);

  /// All currently marked copies, in deterministic (block, node) order.
  std::vector<std::pair<BlockId, int>> corrupt_copies() const;

 private:
  mutable std::mutex mu_;
  std::map<BlockId, std::vector<std::uint32_t>> crcs_;
  std::map<std::pair<BlockId, int>, CorruptMark> marks_;
};

/// A deterministic silently-corrupted view of `data`: flips one bit (XOR
/// 0x08) in each of eight salt-chosen bytes. Single-bit flips in the
/// mantissa/low-exponent region of finite doubles stay finite, so corrupted
/// matrix tiles poison the numerics (large residual) without manufacturing
/// NaN/Inf. Guaranteed to differ from the original even if positions
/// collide.
BlockData corrupt_copy(const BlockData& data, std::uint64_t salt);

}  // namespace mri::dfs
