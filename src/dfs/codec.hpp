// Block codecs: what differs between the two storage policies.
//
// Every block is a list of slots (BlockLocation::replicas, one datanode per
// slot) and is readable from any k live slots. The Dfs runs one read path,
// one node-loss repair, one corrupt-repair and one scrub walk over that
// list; a BlockCodec makes the per-policy decisions inside them:
//
//   copies  — replication-r as the (k=1, m=r-1) repetition code. Every slot
//             shares one payload pointer and the block has one CRC. A lost
//             copy is rebuilt by sharing a survivor's pointer. The SPIN
//             memory tier is its r=1 case, recovered by lineage instead.
//   stripes — RS(k,m): k data cells plus m parity cells, one CRC per cell.
//             Slot position is cell identity. A healthy read concatenates
//             the data cells; a degraded read or a lost cell is decoded
//             from k survivors.
#pragma once

#include <cstdint>
#include <vector>

#include "dfs/block.hpp"
#include "net/topology.hpp"

namespace mri::dfs {

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  /// Slots a read needs: any k live slots yield the block.
  virtual int k(const BlockLocation& loc) const = 0;
  /// Slots a whole block has: `replication` copies, or k + m cells.
  virtual int width(const BlockLocation& loc, int replication) const = 0;
  /// Index of the payload (and of its checksum) that `slot` stores.
  virtual int cell(int slot) const = 0;
  /// True when lost or corrupt slots are rebuilt by decoding k survivors
  /// (reported as reconstructed cells) rather than copied from one
  /// (reported as re-replicated blocks).
  virtual bool decodes() const = 0;

  /// The distinct payloads the block stores, indexed by cell().
  virtual std::vector<BlockData> encode(const BlockLocation& loc,
                                        const BlockData& payload) const = 0;
  /// The block payload from the slots a read fetched (`slots` has one entry
  /// per slot, null where nothing was fetched). Adds the bytes it had to
  /// decode to *decoded.
  virtual BlockData assemble(const BlockLocation& loc,
                             const std::vector<BlockData>& slots,
                             std::uint64_t* decoded) const = 0;
  /// The payload of lost slot `slot`, from the k survivors in `slots`.
  virtual BlockData rebuild(const BlockLocation& loc,
                            const std::vector<BlockData>& slots,
                            int slot) const = 0;

  /// Rack-aware placement of `width` slots on distinct live nodes, the
  /// first on `first` (the writer when it is alive). `base` is the block's
  /// path-hash cursor, so the layout is a function of the file alone.
  virtual std::vector<int> place_racked(const std::vector<int>& live,
                                        const net::Topology& topo, int first,
                                        std::uint64_t base,
                                        int width) const = 0;
  /// Appends the network transfers of writing `loc` from node `writer`
  /// (-1 when no task context is installed).
  virtual void log_write(const BlockLocation& loc, int writer,
                         std::vector<net::Transfer>* out) const = 0;
  /// Takes dead `node` out of the slot list; returns how many slots it held.
  virtual int drop(BlockLocation* loc, int node) const = 0;

  /// Under rack-aware placement, read the closest slot first (else slot
  /// order).
  virtual bool reads_closest_first() const = 0;
  /// Under rack-aware placement, rebuild a lost slot in the first
  /// survivor's rack when a node there is free (else the smallest-id free
  /// node).
  virtual bool repairs_in_source_rack() const = 0;
  /// With verification on, recompute the CRC32C of every slot a read
  /// serves (else trust the checksum store's corrupt marks).
  virtual bool crc_on_read() const = 0;
};

/// The codec that owns `loc`: stripes when it is erasure-coded, else copies.
const BlockCodec& codec_for(const BlockLocation& loc);

}  // namespace mri::dfs
