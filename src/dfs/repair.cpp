// The DFS block path's failure side: node-loss repair, silent-corruption
// injection, corrupt-copy repair and the background scrubber. Every routine
// here walks a block as a list of slots and leaves the per-policy choices
// to its BlockCodec (see codec.hpp).
#include <algorithm>

#include "common/error.hpp"
#include "dfs/codec.hpp"
#include "dfs/dfs.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "dfs/path.hpp"
#include "net/flow_sim.hpp"

namespace mri::dfs {

// ---------------------------------------------------------------------------
// Node loss

NodeKillOutcome Dfs::kill_datanode(int node, double at) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "kill_datanode(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    if (dead_[static_cast<std::size_t>(node)]) return {};
    dead_[static_cast<std::size_t>(node)] = true;
  }

  // HDFS block management, atomically under the namespace lock: take the
  // dead node out of every block it held; a block left with fewer than k
  // live slots is lost (reported once, by the kill that crossed the
  // threshold, and kept registered so reads fail fast); every other one
  // gets each empty slot rebuilt onto a surviving node.
  NodeKillOutcome out;
  std::vector<net::Transfer> repairs;
  std::uint64_t fanin_bytes = 0;
  namenode_.update_blocks([&](const std::string& path,
                              std::vector<BlockLocation>& blocks) {
    bool had_loss = false;
    for (BlockLocation& loc : blocks) {
      const BlockCodec& codec = codec_for(loc);
      const int dropped = codec.drop(&loc, node);
      if (dropped == 0) continue;
      const int live = static_cast<int>(std::count_if(
          loc.replicas.begin(), loc.replicas.end(),
          [](int holder) { return holder >= 0; }));
      if (live < codec.k(loc)) {
        if (live + dropped >= codec.k(loc)) {
          ++out.blocks_lost;
          had_loss = true;
        }
        continue;
      }
      const int width = codec.width(loc, config_.replication);
      for (int slot = 0; slot < width; ++slot) {
        const auto s = static_cast<std::size_t>(slot);
        if (s < loc.replicas.size() && loc.replicas[s] >= 0) continue;
        const int placed = rebuild_slot(loc, slot, &repairs, &fanin_bytes);
        if (placed < 0) break;  // no free node left; stay degraded
        if (s < loc.replicas.size()) {
          loc.replicas[s] = placed;
        } else {
          loc.replicas.push_back(placed);
        }
        if (codec.decodes()) {
          ++out.ec_cells_reconstructed;
          out.ec_reconstructed_bytes += loc.cell_bytes();
        } else {
          ++out.re_replicated_blocks;
          out.re_replicated_bytes += loc.length;
        }
      }
    }
    if (had_loss) out.lost_files.push_back(path);
  });
  datanodes_[static_cast<std::size_t>(node)]->clear();

  // Copies that died with the node take their rot with them: clear their
  // corrupt marks, and drop any hot-cache poison whose block no longer has
  // a corrupted live copy, so neither the datanode path nor the cache keeps
  // serving a corruption that no longer exists on disk. The hot entries
  // themselves stay — the namenode's cached payloads are unchanged by
  // repair and are the one copy that outlives even total slot loss.
  bool marks_cleared = false;
  for (const auto& [block, holder] : checksums_.corrupt_copies()) {
    if (holder != node) continue;
    checksums_.clear_corrupt(block, holder);
    marks_cleared = true;
  }
  if (marks_cleared && config_.hot_cache_bytes > 0) {
    const auto live_marks = checksums_.corrupt_copies();
    const auto still_marked = [&live_marks](BlockId block) {
      for (const auto& mark : live_marks) {
        if (mark.first == block) return true;
      }
      return false;
    };
    std::lock_guard<std::mutex> lock(hot_mu_);
    for (auto& entry : hot_candidates_) {
      auto& poisoned = entry.second.corrupt;
      for (auto it = poisoned.begin(); it != poisoned.end();) {
        if (still_marked(it->first)) {
          ++it;
        } else {
          it = poisoned.erase(it);
        }
      }
    }
  }

  // One repair duration for the chaos engine's stretch accounting: all
  // repair streams start together when the loss is detected, so their
  // contended makespan on a racked fabric (else the fan-in bytes over the
  // network bandwidth), plus the decode CPU of rebuilt cells.
  double seconds = 0.0;
  if (!repairs.empty()) {
    seconds = flow_seconds(repairs);
  } else if (chaos_network_bandwidth_ > 0.0) {
    seconds = static_cast<double>(fanin_bytes) / chaos_network_bandwidth_;
  }
  if (cost_model_ != nullptr) {
    seconds += cost_model_->ec_decode_seconds(out.ec_reconstructed_bytes);
  }
  out.re_replication_seconds = seconds;
  if (out.ec_cells_reconstructed > 0) {
    std::lock_guard<std::mutex> lock(storage_mu_);
    reconstructions_.push_back(StorageReconstruction{
        at, node, out.ec_cells_reconstructed, out.ec_reconstructed_bytes,
        seconds});
  }

  if (metrics_ != nullptr) {
    // Background datanode-to-datanode traffic (HDFS re-replication is not a
    // client read): network copies only, no client-side bytes_read. The
    // survivor fan-in is network traffic; rebuilt cells are decode output.
    IoStats io;
    io.bytes_replicated = out.re_replicated_bytes;
    io.bytes_transferred = fanin_bytes;
    io.bytes_reconstructed = out.ec_reconstructed_bytes;
    metrics_->add_io(io);
    metrics_->increment("dfs_nodes_killed");
    metrics_->increment("dfs_blocks_re_replicated",
                        static_cast<std::uint64_t>(out.re_replicated_blocks));
    metrics_->increment("dfs_blocks_lost",
                        static_cast<std::uint64_t>(out.blocks_lost));
    if (out.ec_cells_reconstructed > 0) {
      metrics_->increment(
          "dfs_ec_cells_reconstructed",
          static_cast<std::uint64_t>(out.ec_cells_reconstructed));
    }
  }
  return out;
}

int Dfs::rebuild_slot(const BlockLocation& loc, int slot,
                      std::vector<net::Transfer>* repairs,
                      std::uint64_t* fanin_bytes) {
  const BlockCodec& codec = codec_for(loc);
  const net::Topology* topo = racked_topology() ? topology_.get() : nullptr;
  std::vector<int> sources;  // the first k live slots
  int target = -1;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (std::size_t s = 0; s < loc.replicas.size(); ++s) {
      const int holder = loc.replicas[s];
      if (holder < 0 || dead_[static_cast<std::size_t>(holder)]) continue;
      sources.push_back(static_cast<int>(s));
      if (static_cast<int>(sources.size()) == codec.k(loc)) break;
    }
    if (static_cast<int>(sources.size()) < codec.k(loc)) return -1;
    // The smallest-id live node holding no slot of the block — deterministic,
    // so same-seed runs place identical repairs — or, when the codec repairs
    // near its source, the first such node in the first source's rack.
    const int near_rack =
        (codec.repairs_in_source_rack() && topo != nullptr &&
         topo->options().rack_aware_placement)
            ? topo->rack_of(loc.replicas[static_cast<std::size_t>(
                  sources.front())])
            : -1;
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      const int candidate = static_cast<int>(i);
      if (dead_[i] || std::find(loc.replicas.begin(), loc.replicas.end(),
                                candidate) != loc.replicas.end()) {
        continue;
      }
      if (target < 0) target = candidate;
      if (near_rack < 0 || topo->rack_of(candidate) == near_rack) {
        target = candidate;
        break;
      }
    }
  }
  if (target < 0) return -1;

  std::vector<BlockData> fetched(loc.replicas.size());
  for (int s : sources) {
    fetched[static_cast<std::size_t>(s)] =
        datanodes_[static_cast<std::size_t>(
                       loc.replicas[static_cast<std::size_t>(s)])]
            ->get(loc.id);
  }
  datanodes_[static_cast<std::size_t>(target)]->put(
      loc.id, codec.rebuild(loc, fetched, slot));
  for (int s : sources) {
    const int holder = loc.replicas[static_cast<std::size_t>(s)];
    if (topo != nullptr) {
      repairs->push_back(net::Transfer{holder, target, loc.cell_bytes(),
                                       net::TransferKind::kRepair});
    }
    *fanin_bytes += loc.cell_bytes();
  }
  return target;
}

double Dfs::flow_seconds(const std::vector<net::Transfer>& transfers) const {
  std::vector<net::Flow> flows;
  flows.reserve(transfers.size());
  for (const net::Transfer& t : transfers) {
    flows.push_back(net::Flow{t.src, t.dst, t.bytes, 0.0, -1});
  }
  return net::simulate_flows(*topology_, flows).end_time;
}

bool Dfs::datanode_dead(int node) const {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "datanode_dead(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  std::lock_guard<std::mutex> lock(chaos_mu_);
  return dead_[static_cast<std::size_t>(node)];
}

int Dfs::live_datanodes() const {
  std::lock_guard<std::mutex> lock(chaos_mu_);
  return static_cast<int>(std::count(dead_.begin(), dead_.end(), false));
}

void Dfs::inject_read_error(int node, int count) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "inject_read_error(" << node << ") on a DFS with "
                                   << num_datanodes() << " datanodes");
  MRI_REQUIRE(count >= 1, "read-error count must be >= 1");
  std::lock_guard<std::mutex> lock(chaos_mu_);
  read_errors_[static_cast<std::size_t>(node)] += count;
}

void Dfs::bind_chaos(ChaosEngine* chaos, double network_bandwidth,
                     const CostModel* cost_model) {
  MRI_REQUIRE(chaos != nullptr, "bind_chaos() needs a chaos engine");
  chaos->set_kill_handler(ChaosEngine::TimedKillHandler(
      [this](int node, double at) { return kill_datanode(node, at); }));
  chaos->set_read_error_handler([this](int node) { inject_read_error(node); });
  chaos->set_corrupt_handler([this](int node, double at, std::uint64_t salt) {
    corrupt_block(node, at, salt);
  });
  chaos->set_scrub_handler([this](double t) { scrub_to(t); });
  if (network_bandwidth > 0.0) chaos->set_network_bandwidth(network_bandwidth);
  chaos_network_bandwidth_ = network_bandwidth;
  cost_model_ = cost_model;
}

// ---------------------------------------------------------------------------
// Integrity

void Dfs::corrupt_block(int node, double at, std::uint64_t salt) {
  MRI_REQUIRE(node >= 0 && node < num_datanodes(),
              "corrupt_block(" << node << ") on a DFS with "
                               << num_datanodes() << " datanodes");
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    if (dead_[static_cast<std::size_t>(node)]) return;
  }
  // Candidate slots on this node. `primary` marks a slot a healthy read
  // actually serves (one of the first k: the first copy, or a data cell),
  // so explicit events poison bytes a reader will see rather than a passive
  // redundancy slot.
  // Block numbering follows commit order, which races across task threads,
  // so nothing here may depend on ids: the pick orders by (bytes, path,
  // block index) and the salt hashes the path — both stable across runs.
  struct Candidate {
    BlockId id = 0;
    std::uint64_t bytes = 0;
    bool primary = false;
    std::string path;
    int index = 0;  // position of the block within its file
  };
  std::vector<Candidate> candidates;
  for (const auto& file : namenode_.snapshot_files()) {
    int index = 0;
    for (const auto& loc : file.blocks) {
      const int k = codec_for(loc).k(loc);
      for (std::size_t slot = 0; slot < loc.replicas.size(); ++slot) {
        if (loc.replicas[slot] != node) continue;
        candidates.push_back(Candidate{loc.id, loc.cell_bytes(),
                                       static_cast<int>(slot) < k, file.path,
                                       index});
      }
      ++index;
    }
  }
  if (candidates.empty()) return;
  const Candidate* pick = nullptr;
  std::uint64_t eff_salt = salt;
  if (salt == 0) {
    // Explicit --corrupt-block event: the node's largest primary slot
    // (ties: first in path then file order) — matrix data, not a tiny
    // metadata file.
    bool any_primary = false;
    for (const auto& c : candidates) any_primary = any_primary || c.primary;
    for (const auto& c : candidates) {
      if (any_primary && !c.primary) continue;
      if (pick == nullptr || c.bytes > pick->bytes ||
          (c.bytes == pick->bytes &&
           (c.path < pick->path ||
            (c.path == pick->path && c.index < pick->index)))) {
        pick = &c;
      }
    }
    // Deterministic per-victim bit pattern; | 1 keeps the salt nonzero.
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over the path
    for (const char ch : pick->path) {
      hash = (hash ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
    hash ^= static_cast<std::uint64_t>(pick->index) * 0x100000001b3ull;
    eff_salt = (0x9e3779b97f4a7c15ull ^ hash ^
                (static_cast<std::uint64_t>(node) + 1ull)) |
               1ull;
  } else {
    // Background bit-rot: the salt doubles as the (already seeded) pick.
    pick = &candidates[static_cast<std::size_t>(salt % candidates.size())];
  }
  // First corruption wins; a repeat hit on an already-bad copy is a no-op
  // so corruptions_injected == corruptions the reader can observe.
  if (!checksums_.mark_corrupt(pick->id, node, eff_salt, at)) return;
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    ++integrity_.corruptions_injected;
  }
  if (config_.hot_cache_bytes > 0) {
    // The cached copy rots with its replica until a repair clears it.
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(pick->path);
    if (it != hot_candidates_.end()) it->second.corrupt[pick->id] = eff_salt;
  }
}

bool Dfs::slot_corrupt(const BlockLocation& loc, int slot) const {
  const int node = loc.replicas[static_cast<std::size_t>(slot)];
  const auto expected =
      checksums_.expected(loc.id, codec_for(loc).cell(slot));
  if (!expected) return false;  // committed before checksumming was enabled
  // Recompute the CRC over the bytes a read would actually serve: the
  // pristine payload, or its bit-flipped overlay when the copy is marked.
  BlockData served = datanodes_[static_cast<std::size_t>(node)]->get(loc.id);
  if (auto mark = checksums_.corrupt_mark(loc.id, node)) {
    served = corrupt_copy(served, mark->salt);
  }
  return crc32c(std::span<const std::byte>(*served)) != *expected;
}

void Dfs::note_verified(std::int64_t cells, std::uint64_t bytes,
                        IoStats* account) const {
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    integrity_.cells_verified += cells;
    integrity_.bytes_verified += bytes;
  }
  IoStats io;
  io.bytes_checksummed = bytes;
  if (account != nullptr) *account += io;
  if (metrics_ != nullptr) metrics_->add_io(io);
}

double Dfs::repair_corrupt_slot(const BlockLocation& loc,
                                const std::string& path, StorageTier tier,
                                int slot, double at, bool by_scrubber,
                                std::vector<net::Transfer>* flows) const {
  const BlockCodec& codec = codec_for(loc);
  const int node = loc.replicas[static_cast<std::size_t>(slot)];
  // The clear doubles as the claim: under racing readers exactly one caller
  // gets true, so every corruption is detected, repaired and counted once.
  if (!checksums_.clear_corrupt(loc.id, node)) return 0.0;
  const std::string norm = normalize(path);
  const std::uint64_t bytes = loc.cell_bytes();
  double seconds = 0.0;
  const char* kind = "copy";
  std::int64_t IntegrityReport::*repaired =
      &IntegrityReport::cells_repaired_copy;
  IoStats io;
  if (tier == StorageTier::kMemory) {
    // Single-copy memory tier: no other slot to rebuild from — the engine
    // recomputes the partition from lineage. Without an engine the repair
    // is free in time (the pristine in-sim payload simply stops being
    // served corrupted).
    kind = "lineage";
    repaired = &IntegrityReport::cells_repaired_lineage;
    TierListener* listener = tier_listener_.load(std::memory_order_acquire);
    seconds = listener != nullptr ? listener->on_corrupt(norm, at) : 0.0;
  } else if (codec.decodes()) {
    // Decode the bad cell from k clean survivors and ship it back.
    kind = "ec";
    repaired = &IntegrityReport::cells_repaired_ec;
    io.bytes_reconstructed = bytes;
    io.bytes_transferred = bytes;
  } else {
    // Re-materialize the block from a healthy copy.
    io.bytes_replicated = bytes;
    io.bytes_transferred = bytes;
  }
  if (metrics_ != nullptr && io.bytes_transferred > 0) metrics_->add_io(io);
  if (flows != nullptr && racked_topology() && tier != StorageTier::kMemory) {
    // Repair traffic crosses the fabric from the first live healthy holder.
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (int holder : loc.replicas) {
      if (holder < 0 || holder == node) continue;
      if (dead_[static_cast<std::size_t>(holder)]) continue;
      flows->push_back(
          net::Transfer{holder, node, bytes, net::TransferKind::kRepair});
      break;
    }
  }
  if (config_.hot_cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(norm);
    if (it != hot_candidates_.end()) it->second.corrupt.erase(loc.id);
  }
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    ++integrity_.corruptions_detected;
    ++integrity_.cells_quarantined;
    ++(integrity_.*repaired);
    integrity_.repairs.push_back(IntegrityRepairSpan{
        at, node, norm, codec.cell(slot), bytes, kind, by_scrubber});
  }
  return seconds;
}

void Dfs::scrub_to(double now) {
  if (!config_.verify_checksums || config_.scrub_interval_seconds <= 0.0) {
    return;
  }
  if (next_scrub_at_ == 0.0) next_scrub_at_ = config_.scrub_interval_seconds;
  while (next_scrub_at_ <= now) {
    run_scrub_pass(next_scrub_at_);
    next_scrub_at_ += config_.scrub_interval_seconds;
  }
}

void Dfs::run_scrub_pass(double at) {
  std::vector<net::Transfer> flows;
  std::map<int, std::uint64_t> node_bytes;
  std::uint64_t scanned = 0;
  std::uint64_t repair_bytes = 0;
  std::int64_t cells = 0;
  std::int64_t repaired = 0;
  double lineage_seconds = 0.0;
  for (const auto& file : namenode_.snapshot_files()) {
    for (const auto& loc : file.blocks) {
      for (std::size_t s = 0; s < loc.replicas.size(); ++s) {
        const int holder = loc.replicas[s];
        if (holder < 0) continue;  // lost stripe cell
        {
          std::lock_guard<std::mutex> lock(chaos_mu_);
          if (dead_[static_cast<std::size_t>(holder)]) continue;
        }
        const std::uint64_t len = loc.cell_bytes();
        node_bytes[holder] += len;
        scanned += len;
        ++cells;
        note_verified(1, len, nullptr);
        if (slot_corrupt(loc, static_cast<int>(s))) {
          lineage_seconds += repair_corrupt_slot(
              loc, file.path, file.tier, static_cast<int>(s), at,
              /*by_scrubber=*/true, &flows);
          ++repaired;
          repair_bytes += len;
        }
      }
    }
  }
  // Pass duration: every node scrubs its own copies in parallel at disk
  // bandwidth (the slowest node paces the pass), plus the checksum CPU over
  // everything scanned, plus repair traffic — flow-simulated across the
  // racked fabric when one is attached — and any lineage recomputes.
  double pass_seconds = lineage_seconds;
  if (cost_model_ != nullptr) {
    std::uint64_t max_node_bytes = 0;
    for (const auto& [n, b] : node_bytes) {
      max_node_bytes = std::max(max_node_bytes, b);
    }
    pass_seconds +=
        static_cast<double>(max_node_bytes) / cost_model_->disk_bandwidth +
        cost_model_->checksum_seconds(scanned);
  }
  if (!flows.empty()) {
    pass_seconds += flow_seconds(flows);
  } else if (repair_bytes > 0 && chaos_network_bandwidth_ > 0.0) {
    pass_seconds +=
        static_cast<double>(repair_bytes) / chaos_network_bandwidth_;
  }
  std::lock_guard<std::mutex> lock(integrity_mu_);
  ++integrity_.scrub_passes;
  integrity_.scrub_bytes_scanned += scanned;
  integrity_.scrub_seconds += pass_seconds;
  integrity_.scrub_spans.push_back(
      ScrubPassSpan{at, pass_seconds, scanned, cells, repaired});
}

IntegrityReport Dfs::integrity_report() const {
  IntegrityReport r;
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    r = integrity_;
  }
  r.verify_checksums = config_.verify_checksums;
  r.scrub_interval_seconds = config_.scrub_interval_seconds;
  return r;
}

}  // namespace mri::dfs
