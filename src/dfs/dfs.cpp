#include "dfs/dfs.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "dfs/codec.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "dfs/path.hpp"

namespace mri::dfs {

namespace {
thread_local TransferLog* t_transfer_log = nullptr;
}  // namespace

TransferLog* current_transfer_log() { return t_transfer_log; }

ScopedTransferLog::ScopedTransferLog(int node) : previous_(t_transfer_log) {
  log_.node = node;
  t_transfer_log = &log_;
}

ScopedTransferLog::~ScopedTransferLog() { t_transfer_log = previous_; }

Dfs::Dfs(int num_datanodes, DfsConfig config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {
  MRI_REQUIRE(num_datanodes >= 1, "DFS needs at least one datanode");
  MRI_REQUIRE(config.replication >= 1, "replication must be >= 1");
  MRI_REQUIRE(config.block_size >= 1, "block size must be >= 1");
  MRI_REQUIRE(config.scrub_interval_seconds >= 0.0,
              "scrub interval must be >= 0");
  MRI_REQUIRE(config.scrub_interval_seconds == 0.0 || config.verify_checksums,
              "the background scrubber verifies checksums, so "
              "scrub_interval_seconds needs verify_checksums on");
  if (config.storage_policy == StoragePolicy::kErasureCoded) {
    MRI_REQUIRE(config.ec.k >= 1 && config.ec.m >= 1,
                "erasure coding needs k >= 1 and m >= 1, got RS("
                    << config.ec.k << "," << config.ec.m << ")");
    MRI_REQUIRE(config.ec.cells() <= num_datanodes,
                "erasure coding RS(" << config.ec.k << "," << config.ec.m
                                     << ") needs k + m = " << config.ec.cells()
                                     << " datanodes to spread a stripe, but "
                                        "the cluster has only "
                                     << num_datanodes);
  }
  datanodes_.reserve(static_cast<std::size_t>(num_datanodes));
  for (int i = 0; i < num_datanodes; ++i) {
    datanodes_.push_back(std::make_unique<DataNode>(i));
  }
  dead_.assign(static_cast<std::size_t>(num_datanodes), false);
  read_errors_.assign(static_cast<std::size_t>(num_datanodes), 0);
}

void Dfs::set_topology(std::shared_ptr<const net::Topology> topology) {
  MRI_REQUIRE(topology == nullptr || !topology->racked() ||
                  topology->num_hosts() == num_datanodes(),
              "topology has " << topology->num_hosts() << " hosts but the DFS "
                              << "has " << num_datanodes() << " datanodes");
  topology_ = std::move(topology);
}

bool Dfs::racked_topology() const {
  return topology_ != nullptr && topology_->racked() &&
         topology_->num_hosts() == num_datanodes();
}

int Dfs::task_node() const {
  const TransferLog* log = current_transfer_log();
  return (log != nullptr && log->node >= 0 && log->node < num_datanodes())
             ? log->node
             : -1;
}

void Dfs::evict(const std::vector<BlockLocation>& blocks) {
  for (const auto& block : blocks) {
    checksums_.forget(block.id);
    for (int node : block.replicas) {
      if (node < 0) continue;  // lost stripe cell
      datanodes_[static_cast<std::size_t>(node)]->evict(block.id);
    }
  }
}

void Dfs::remove(const std::string& path, bool recursive) {
  TierListener* listener = tier_listener_.load(std::memory_order_acquire);
  const bool want_paths =
      listener != nullptr || config_.hot_cache_bytes > 0;
  std::vector<std::string> removed_paths;
  evict(namenode_.remove(path, recursive,
                         want_paths ? &removed_paths : nullptr));
  if (config_.hot_cache_bytes > 0) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    bool changed = false;
    for (const std::string& p : removed_paths) {
      changed = hot_candidates_.erase(p) > 0 || changed;
    }
    if (changed) recompute_hot_residents_locked();
  }
  if (listener != nullptr) {
    for (const std::string& p : removed_paths) listener->on_remove(p);
  }
}

// ---------------------------------------------------------------------------
// Writer

Dfs::Writer::Writer(Dfs* fs, std::string path, bool overwrite, IoStats* account,
                    StorageTier tier)
    : fs_(fs), path_(std::move(path)), overwrite_(overwrite),
      account_(account), tier_(tier) {}

Dfs::Writer::Writer(Writer&& other) noexcept
    : fs_(other.fs_),
      path_(std::move(other.path_)),
      overwrite_(other.overwrite_),
      account_(other.account_),
      tier_(other.tier_),
      buffer_(std::move(other.buffer_)),
      closed_(other.closed_) {
  other.closed_ = true;  // moved-from writer must not commit
}

Dfs::Writer::~Writer() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Swallow: destructor must not throw. Callers that care about commit
      // failures should call close() explicitly.
    }
  }
}

void Dfs::Writer::write(std::span<const std::byte> data) {
  MRI_CHECK_MSG(!closed_, "write() after close() on " << path_);
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Dfs::Writer::write_doubles(std::span<const double> values) {
  write(std::as_bytes(values));
}

void Dfs::Writer::write_u64(std::uint64_t value) {
  write(std::as_bytes(std::span<const std::uint64_t>(&value, 1)));
}

void Dfs::Writer::write_text(std::string_view text) {
  write(std::as_bytes(std::span<const char>(text.data(), text.size())));
}

void Dfs::Writer::close() {
  if (closed_) return;
  closed_ = true;
  fs_->commit(path_, std::move(buffer_), overwrite_, account_, tier_);
}

Dfs::Writer Dfs::create(const std::string& path, IoStats* account,
                        bool overwrite, StorageTier tier) {
  return Writer(this, normalize(path), overwrite, account, tier);
}

void Dfs::commit(const std::string& path, std::vector<std::byte> buffer,
                 bool overwrite, IoStats* account, StorageTier tier,
                 bool charge, bool notify) {
  const std::uint64_t total = buffer.size();
  // Slots go to live nodes only; with no dead nodes this degenerates to
  // round-robin over all datanodes, bit-identical to the chaos-free layout.
  std::vector<int> live;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (!dead_[i]) live.push_back(static_cast<int>(i));
    }
  }
  MRI_CHECK_MSG(!live.empty(),
                "every datanode is dead; cannot write " << path);
  // Memory-tier files keep a single unreplicated copy (Spark-style lineage
  // fault tolerance instead of replication).
  const int repl =
      tier == StorageTier::kMemory
          ? 1
          : std::min(config_.replication, static_cast<int>(live.size()));

  // Placement base: FNV-1a of the path, advanced per block. A function of
  // the file alone — NOT a shared counter — so concurrent writers racing on
  // commit order still produce the same layout every run (chaos repair
  // totals depend on which blocks lived on the dead node, so placement must
  // be deterministic for same-seed runs to be bit-identical).
  std::uint64_t base = 14695981039346656037ull;
  for (char c : path) {
    base ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    base *= 1099511628211ull;
  }

  // Rack-aware placement and write-traffic recording only apply under a
  // racked topology; the flat path below stays byte-for-byte what it always
  // was.
  const bool racked = racked_topology() && tier == StorageTier::kDisk;
  const net::Topology* topo = racked ? topology_.get() : nullptr;
  const bool rack_aware =
      topo != nullptr && topo->options().rack_aware_placement;
  TransferLog* log = racked ? current_transfer_log() : nullptr;
  const int writer = racked ? task_node() : -1;
  const bool writer_alive =
      writer >= 0 && std::find(live.begin(), live.end(), writer) != live.end();
  // Memory-tier placement is writer-local regardless of topology: the
  // producing task keeps its output in its own node's memory (the SPIN
  // model), which is what makes the consumer's node-local cache hit
  // possible. Falls back to the hash policy when no task context is
  // installed (driver-side writes) or the writer's node is dead.
  const int me = task_node();
  const bool mem_local_write =
      tier == StorageTier::kMemory && me >= 0 &&
      std::find(live.begin(), live.end(), me) != live.end();

  // Erasure coding applies to disk-tier files only; memory-tier copies keep
  // the SPIN single-copy model (lineage, not parity, recovers them).
  const bool striped = tier == StorageTier::kDisk &&
                       config_.storage_policy == StoragePolicy::kErasureCoded;
  if (striped) {
    MRI_CHECK_MSG(static_cast<int>(live.size()) >= config_.ec.cells(),
                  "cannot stripe " << path << " as RS(" << config_.ec.k << ","
                                   << config_.ec.m << "): only " << live.size()
                                   << " datanodes are alive but a stripe "
                                      "needs " << config_.ec.cells());
  }
  std::uint64_t parity_bytes = 0;    // stored slots beyond the k a read needs
  std::uint64_t redundancy_net = 0;  // slots that leave the writer
  // Hot-block cache candidacy: disk-tier files named like the repeatedly
  // re-read factors. The full-block payloads are retained namenode-side.
  const bool hot_candidate =
      config_.hot_cache_bytes > 0 && tier == StorageTier::kDisk &&
      basename(path).rfind(config_.hot_file_prefix, 0) == 0;
  std::vector<BlockData> full_blocks;
  std::vector<BlockId> full_block_ids;
  // Write-path checksumming (HDFS computes block checksums client-side on
  // write): one CRC32C per stored payload — per block for copies, per cell
  // for stripes.
  std::uint64_t checksummed_bytes = 0;
  std::int64_t checksummed_cells = 0;

  std::vector<BlockLocation> locations;
  std::size_t offset = 0;
  // Split into blocks; zero-length files get zero blocks.
  while (offset < buffer.size()) {
    const std::size_t len = std::min(config_.block_size, buffer.size() - offset);
    auto payload = std::make_shared<std::vector<std::byte>>(
        buffer.begin() + static_cast<std::ptrdiff_t>(offset),
        buffer.begin() + static_cast<std::ptrdiff_t>(offset + len));
    BlockLocation loc;
    loc.id = next_block_id_.fetch_add(1);
    loc.length = len;
    if (striped) {
      loc.ec_k = config_.ec.k;
      loc.ec_m = config_.ec.m;
    }
    ++base;
    const BlockCodec& codec = codec_for(loc);
    const int width = codec.width(loc, repl);
    if (rack_aware) {
      const int first =
          writer_alive ? writer
                       : live[static_cast<std::size_t>(base % live.size())];
      loc.replicas = codec.place_racked(live, *topo, first, base, width);
    } else if (mem_local_write) {
      loc.replicas.push_back(me);  // width == 1 on the memory tier
    } else {
      for (int i = 0; i < width; ++i) {
        loc.replicas.push_back(live[static_cast<std::size_t>(
            (base + static_cast<std::uint64_t>(i)) % live.size())]);
      }
    }
    if (log != nullptr) codec.log_write(loc, writer, &log->transfers);

    const std::vector<BlockData> cells = codec.encode(loc, payload);
    for (std::size_t s = 0; s < loc.replicas.size(); ++s) {
      datanodes_[static_cast<std::size_t>(loc.replicas[s])]->put(
          loc.id, cells[static_cast<std::size_t>(
                      codec.cell(static_cast<int>(s)))]);
    }
    const std::uint64_t slot_bytes = loc.cell_bytes();
    if (config_.verify_checksums) {
      std::vector<std::uint32_t> crcs;
      crcs.reserve(cells.size());
      for (const BlockData& c : cells) {
        crcs.push_back(crc32c(std::span<const std::byte>(*c)));
      }
      checksums_.record(loc.id, std::move(crcs));
      checksummed_cells += static_cast<std::int64_t>(cells.size());
      checksummed_bytes += cells.size() * slot_bytes;
    }
    parity_bytes +=
        (cells.size() - static_cast<std::size_t>(codec.k(loc))) * slot_bytes;
    redundancy_net += (loc.replicas.size() - 1) * slot_bytes;
    if (hot_candidate) {
      full_blocks.push_back(payload);
      full_block_ids.push_back(loc.id);
    }
    locations.push_back(std::move(loc));
    offset += len;
  }

  const int home =
      locations.empty() ? me : locations.front().replicas.front();
  const std::uint64_t stripes = locations.size();
  namenode_.commit_file(path, std::move(locations), overwrite, tier);

  if (hot_candidate) {
    std::lock_guard<std::mutex> lock(hot_mu_);
    hot_candidates_[path] =
        HotFile{total, std::move(full_blocks), std::move(full_block_ids), {}};
    recompute_hot_residents_locked();
  }

  if (checksummed_cells > 0) {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    integrity_.cells_checksummed += checksummed_cells;
  }

  if (charge) {
    IoStats io;
    if (tier == StorageTier::kMemory) {
      io.bytes_written_memory = total;
    } else {
      // Logical data at disk bandwidth, parity as extra disk traffic, and
      // every slot past the first as network: (r-1) full copies pipelined,
      // or (k+m-1) cells streamed from the writer.
      io.bytes_written = total;
      io.bytes_parity = parity_bytes;
      io.bytes_replicated = redundancy_net;
      io.bytes_transferred = redundancy_net;
    }
    io.bytes_checksummed = checksummed_bytes;
    if (account != nullptr) *account += io;
    if (metrics_ != nullptr) {
      metrics_->add_io(io);
      if (striped && stripes > 0) {
        metrics_->increment("dfs_ec_stripes_written", stripes);
      }
    }
  }

  if (notify && tier == StorageTier::kMemory) {
    // Fired outside every DFS lock; `account` already includes this write,
    // so the listener's production-IoStats snapshot is the full task cost.
    if (TierListener* listener = tier_listener_.load(std::memory_order_acquire)) {
      listener->on_commit(path, tier, total, home,
                          std::span<const std::byte>(buffer.data(),
                                                     buffer.size()),
                          account);
    }
  }
}

// ---------------------------------------------------------------------------
// Reader

Dfs::Reader::Reader(std::vector<BlockData> blocks, std::vector<int> sources,
                    std::vector<bool> mem_local, std::uint64_t size,
                    IoStats* account, MetricsRegistry* metrics,
                    bool record_transfers)
    : blocks_(std::move(blocks)),
      sources_(std::move(sources)),
      mem_local_(std::move(mem_local)),
      size_(size),
      account_(account),
      metrics_(metrics),
      record_transfers_(record_transfers) {}

void Dfs::Reader::account(std::uint64_t bytes, std::uint64_t memory_bytes) {
  IoStats io;
  io.bytes_read = bytes;
  io.bytes_transferred = bytes;  // HDFS read = remote read in the paper model
  // Node-local memory-tier chunks are a cache hit: charged at memory
  // bandwidth, no disk or network component.
  io.bytes_read_memory = memory_bytes;
  if (account_ != nullptr) *account_ += io;
  if (metrics_ != nullptr) metrics_->add_io(io);
}

std::size_t Dfs::Reader::read(std::span<std::byte> dst) {
  TransferLog* log = record_transfers_ ? current_transfer_log() : nullptr;
  std::size_t copied = 0;
  std::uint64_t memory_bytes = 0;
  while (copied < dst.size() && position_ < size_) {
    const auto& block = *blocks_[block_index_];
    const std::size_t in_block = block.size() - block_offset_;
    const std::size_t want = std::min(dst.size() - copied, in_block);
    std::memcpy(dst.data() + copied, block.data() + block_offset_, want);
    if (!mem_local_.empty() && mem_local_[block_index_]) memory_bytes += want;
    if (log != nullptr && want > 0 && sources_[block_index_] >= 0) {
      // One transfer per (block, read) chunk: bytes flow from the replica
      // this block was opened from to the reading task's node. The flow
      // scheduler coalesces per endpoint pair; node-local chunks stay in
      // the log too (they are disk traffic, charged at disk bandwidth).
      log->transfers.push_back(net::Transfer{sources_[block_index_],
                                             log->node, want,
                                             net::TransferKind::kRead});
    }
    copied += want;
    block_offset_ += want;
    position_ += want;
    if (block_offset_ == block.size()) {
      ++block_index_;
      block_offset_ = 0;
    }
  }
  if (copied > 0) account(copied - memory_bytes, memory_bytes);
  return copied;
}

void Dfs::Reader::read_exact(std::span<std::byte> dst) {
  const std::size_t got = read(dst);
  if (got != dst.size()) {
    throw DfsError("short read: wanted " + std::to_string(dst.size()) +
                   " bytes, got " + std::to_string(got));
  }
}

double Dfs::Reader::read_double() {
  double v = 0.0;
  read_exact(std::as_writable_bytes(std::span<double>(&v, 1)));
  return v;
}

std::uint64_t Dfs::Reader::read_u64() {
  std::uint64_t v = 0;
  read_exact(std::as_writable_bytes(std::span<std::uint64_t>(&v, 1)));
  return v;
}

void Dfs::Reader::read_doubles(std::span<double> dst) {
  read_exact(std::as_writable_bytes(dst));
}

std::vector<double> Dfs::Reader::read_all_doubles() {
  const std::uint64_t bytes = remaining();
  if (bytes % sizeof(double) != 0) {
    throw DfsError("file tail is not a whole number of doubles");
  }
  std::vector<double> values(bytes / sizeof(double));
  read_doubles(values);
  return values;
}

std::string Dfs::Reader::read_all_text() {
  std::string text(remaining(), '\0');
  read_exact(std::as_writable_bytes(std::span<char>(text.data(), text.size())));
  return text;
}

void Dfs::Reader::seek(std::uint64_t offset) {
  MRI_REQUIRE(offset <= size_, "seek past end of file");
  position_ = 0;
  block_index_ = 0;
  block_offset_ = 0;
  std::uint64_t left = offset;
  while (left > 0) {
    const std::uint64_t block_len = blocks_[block_index_]->size();
    if (left >= block_len) {
      left -= block_len;
      ++block_index_;
    } else {
      block_offset_ = left;
      left = 0;
    }
  }
  position_ = offset;
}

BlockData Dfs::read_block(const BlockLocation& loc, std::size_t index,
                          const std::string& path, StorageTier tier,
                          IoStats* account, int* source) const {
  const BlockCodec& codec = codec_for(loc);
  const auto k = static_cast<std::size_t>(codec.k(loc));
  const int me = task_node();
  std::vector<int> order(loc.replicas.size());
  std::iota(order.begin(), order.end(), 0);
  if (codec.reads_closest_first() && me >= 0 && racked_topology() &&
      topology_->options().rack_aware_placement) {
    // Node-local first, then rack-local, then anything live, like HDFS.
    const int my_rack = topology_->rack_of(me);
    const auto distance = [&](int slot) {
      const int n = loc.replicas[static_cast<std::size_t>(slot)];
      if (n == me) return 0;
      return topology_->rack_of(n) == my_rack ? 1 : 2;
    };
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return distance(a) < distance(b);
    });
  }

  // With verification on, a decoding codec treats a slot the checksum store
  // marks corrupt like a dead one and decodes around it, repairing it after
  // the read; a copy is instead repaired in place below and then served.
  // Routing around a bad copy would make the served source (and the
  // transfer log) depend on how repairs race with concurrent readers,
  // breaking bit-identical same-seed reports.
  const bool skip_corrupt = config_.verify_checksums && codec.decodes();
  std::vector<int> chosen;
  std::vector<std::pair<int, CorruptMark>> corrupt;
  int failed_over = 0;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    for (int slot : order) {
      const int holder = loc.replicas[static_cast<std::size_t>(slot)];
      if (holder < 0 || dead_[static_cast<std::size_t>(holder)]) continue;
      if (read_errors_[static_cast<std::size_t>(holder)] > 0) {
        --read_errors_[static_cast<std::size_t>(holder)];
        ++failed_over;
        continue;
      }
      if (skip_corrupt) {
        if (auto mark = checksums_.corrupt_mark(loc.id, holder)) {
          corrupt.emplace_back(slot, *mark);
          continue;
        }
      }
      chosen.push_back(slot);
      if (chosen.size() == k) break;
    }
  }
  if (chosen.size() < k) {
    const std::string block =
        "block " + std::to_string(index) + " of " + path;
    if (!corrupt.empty() && failed_over == 0) {
      // Verification refuses to serve bytes it knows are bad.
      throw UnrecoverableBlock(
          block + ": " + std::to_string(corrupt.size()) +
          " slot(s) failed checksum verification and only " +
          std::to_string(chosen.size()) + " clean slot(s) remain, but a read "
          "needs " + std::to_string(k) + "; the data is unrecoverable");
    }
    if (failed_over > 0) {
      throw DfsError("read of " + block + " found only " +
                     std::to_string(chosen.size()) + " of the " +
                     std::to_string(k) +
                     " slot(s) it needs after injected read errors; "
                     "transient — retry the read");
    }
    throw UnrecoverableBlock(block + ": only " +
                             std::to_string(chosen.size()) +
                             " live slot(s) remain, but a read needs " +
                             std::to_string(k) +
                             "; the data is unrecoverable");
  }
  if (failed_over > 0 && metrics_ != nullptr) {
    metrics_->increment("dfs_read_errors_survived",
                        static_cast<std::uint64_t>(failed_over));
  }

  std::vector<BlockData> slots(loc.replicas.size());
  for (int slot : chosen) {
    const int holder = loc.replicas[static_cast<std::size_t>(slot)];
    BlockData data = datanodes_[static_cast<std::size_t>(holder)]->get(loc.id);
    if (auto mark = checksums_.corrupt_mark(loc.id, holder)) {
      if (config_.verify_checksums && !skip_corrupt) {
        repair_corrupt_slot(loc, path, tier, slot, mark->at,
                            /*by_scrubber=*/false, nullptr);
      } else {
        // Silent corruption doing its job: the read *succeeds*, with wrong
        // bytes (a deterministic bit-flipped view of the payload).
        data = corrupt_copy(data, mark->salt);
      }
    }
    slots[static_cast<std::size_t>(slot)] = std::move(data);
  }
  if (config_.verify_checksums) {
    // The one place the codecs verify differently (see crc_on_read): copies
    // recompute the CRC of the copy they serve (it was repaired above, so
    // the check passes), stripes trust the marks the scan already checked.
    if (codec.crc_on_read()) {
      for (int slot : chosen) slot_corrupt(loc, slot);
    }
    note_verified(static_cast<std::int64_t>(chosen.size()),
                  chosen.size() * loc.cell_bytes(), account);
  }
  std::uint64_t decoded = 0;
  BlockData out = codec.assemble(loc, slots, &decoded);
  if (decoded > 0) {
    // Degraded read: the same bytes fetched as a healthy one, but lost data
    // had to be decoded — charged at ec_decode_bandwidth.
    IoStats io;
    io.degraded_reads = 1;
    io.bytes_reconstructed = decoded;
    if (account != nullptr) *account += io;
    if (metrics_ != nullptr) metrics_->add_io(io);
  }
  for (const auto& [slot, mark] : corrupt) {
    repair_corrupt_slot(loc, path, tier, slot, mark.at,
                        /*by_scrubber=*/false, nullptr);
  }

  // A block served from one slot streams from its holder: the Reader logs
  // each chunk it copies. One assembled from several slots is fetched whole
  // now, one transfer per slot.
  *source = -1;
  if (chosen.size() == 1) {
    *source = loc.replicas[static_cast<std::size_t>(chosen.front())];
  } else if (me >= 0 && racked_topology()) {
    TransferLog* tlog = current_transfer_log();
    for (int slot : chosen) {
      tlog->transfers.push_back(
          net::Transfer{loc.replicas[static_cast<std::size_t>(slot)], me,
                        loc.cell_bytes(), net::TransferKind::kRead});
    }
  }
  return out;
}

Dfs::Reader Dfs::open(const std::string& path, IoStats* account) const {
  const auto blocks = namenode_.file_blocks(path);
  const StorageTier tier = namenode_.file_tier(path);
  TransferLog* log = current_transfer_log();
  const int me = task_node();
  std::vector<BlockData> data;
  std::vector<int> sources;
  std::vector<bool> mem_local;
  data.reserve(blocks.size());
  sources.reserve(blocks.size());
  std::uint64_t size = 0;
  // Namenode hot-block cache: a resident file is served from the
  // namenode's own copy — charged like any remote read, but immune to lost
  // cells/replicas and never paying the degraded-decode path.
  if (config_.hot_cache_bytes > 0) {
    const std::string norm = normalize(path);
    std::lock_guard<std::mutex> lock(hot_mu_);
    auto it = hot_candidates_.find(norm);
    if (it != hot_candidates_.end() && hot_resident_.count(norm) > 0 &&
        // A poisoned entry must not out-serve verification: skip the hit and
        // fall through to the datanode path, whose read-repair also clears
        // the cache poison (the staleness bug this gate closes).
        !(config_.verify_checksums && !it->second.corrupt.empty())) {
      ++hot_hits_;
      hot_hit_bytes_ += it->second.size;
      if (metrics_ != nullptr) {
        metrics_->increment("dfs_hot_cache_hits");
        metrics_->increment("dfs_hot_cache_hit_bytes", it->second.size);
      }
      if (TierListener* listener =
              tier_listener_.load(std::memory_order_acquire)) {
        if (log != nullptr) log->read_paths.push_back(norm);
        listener->on_open(norm, tier, it->second.size);
      }
      std::vector<BlockData> served = it->second.blocks;
      if (!it->second.corrupt.empty()) {
        // Verification off: the cache mirrors its corrupted replica, so the
        // hit silently serves the bit-flipped view.
        for (std::size_t i = 0; i < served.size(); ++i) {
          auto cit = it->second.corrupt.find(it->second.ids[i]);
          if (cit != it->second.corrupt.end()) {
            served[i] = corrupt_copy(served[i], cit->second);
          }
        }
      } else if (config_.verify_checksums) {
        // Clean hit with verification on still pays the checksum CPU.
        note_verified(static_cast<std::int64_t>(served.size()),
                      it->second.size, account);
      }
      std::vector<int> no_sources(served.size(), -1);
      return Reader(std::move(served), std::move(no_sources), {},
                    it->second.size, account, metrics_, racked_topology());
    }
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockLocation& loc = blocks[i];
    int src = -1;
    data.push_back(read_block(loc, i, path, tier, account, &src));
    sources.push_back(src);
    // A memory-tier block on the reader's own node streams at memory
    // bandwidth (the cache hit the SPIN engine exists to create); remote
    // memory blocks still pay the network fetch.
    if (tier == StorageTier::kMemory && src >= 0 && src == me) {
      if (mem_local.empty()) mem_local.assign(blocks.size(), false);
      mem_local[sources.size() - 1] = true;
    }
    size += loc.length;
  }
  if (TierListener* listener = tier_listener_.load(std::memory_order_acquire)) {
    // Record the task's read-set for lineage (per-thread, so deterministic
    // under any task interleaving), then let the engine bump cache recency.
    if (log != nullptr) log->read_paths.push_back(normalize(path));
    listener->on_open(normalize(path), tier, size);
  }
  return Reader(std::move(data), std::move(sources), std::move(mem_local),
                size, account, metrics_, racked_topology());
}

void Dfs::spill_to_disk(const std::string& path, IoStats* account) {
  const std::string norm = normalize(path);
  MRI_REQUIRE(namenode_.file_tier(norm) == StorageTier::kMemory,
              "spill_to_disk(" << norm << "): file is not memory-tier");
  namenode_.set_file_tier(norm, StorageTier::kDisk);
  IoStats io;
  io.bytes_spilled = namenode_.file_size(norm);
  if (account != nullptr) *account += io;
  if (metrics_ != nullptr) {
    metrics_->add_io(io);
    metrics_->increment("dfs_files_spilled");
    metrics_->increment("dfs_bytes_spilled", io.bytes_spilled);
  }
}

void Dfs::restore_file(const std::string& path,
                       std::span<const std::byte> payload, StorageTier tier) {
  const std::string norm = normalize(path);
  if (namenode_.exists(norm)) {
    // Drop the empty-replica skeleton (and any surviving replicas of a
    // partially lost file) without firing on_remove: the engine drives this
    // restore and keeps its lineage record alive.
    evict(namenode_.remove(norm, false, nullptr));
  }
  std::vector<std::byte> buffer(payload.begin(), payload.end());
  commit(norm, std::move(buffer), /*overwrite=*/false, /*account=*/nullptr,
         tier, /*charge=*/false, /*notify=*/false);
}

// ---------------------------------------------------------------------------
// Convenience

void Dfs::write_doubles(const std::string& path, std::span<const double> values,
                        IoStats* account) {
  Writer w = create(path, account);
  w.write_doubles(values);
  w.close();
}

std::vector<double> Dfs::read_doubles(const std::string& path,
                                      IoStats* account) const {
  return open(path, account).read_all_doubles();
}

void Dfs::write_text(const std::string& path, std::string_view text,
                     IoStats* account) {
  Writer w = create(path, account);
  w.write_text(text);
  w.close();
}

std::string Dfs::read_text(const std::string& path, IoStats* account) const {
  return open(path, account).read_all_text();
}

std::uint64_t Dfs::physical_bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& node : datanodes_) total += node->bytes_stored();
  return total;
}

void Dfs::recompute_hot_residents_locked() const {
  hot_resident_.clear();
  hot_resident_bytes_ = 0;
  // Greedy admission over candidate paths in sorted (map) order: a pure
  // function of the candidate set, independent of commit interleaving — the
  // property that keeps same-seed runs bit-identical under task-thread
  // races. (Hot files are written and read in different phases, so the set
  // is stable by the time the hits matter.)
  for (const auto& [path, file] : hot_candidates_) {
    if (hot_resident_bytes_ + file.size > config_.hot_cache_bytes) continue;
    hot_resident_.insert(path);
    hot_resident_bytes_ += file.size;
  }
}

StorageReport Dfs::storage_report() const {
  StorageReport s;
  s.policy = to_string(config_.storage_policy);
  if (config_.storage_policy == StoragePolicy::kErasureCoded) {
    s.ec_k = config_.ec.k;
    s.ec_m = config_.ec.m;
  }
  s.logical_bytes = logical_bytes_stored();
  s.physical_bytes = physical_bytes_stored();
  s.physical_overhead = s.logical_bytes > 0
                            ? static_cast<double>(s.physical_bytes) /
                                  static_cast<double>(s.logical_bytes)
                            : 0.0;
  {
    std::lock_guard<std::mutex> lock(hot_mu_);
    s.hot_cache_capacity_bytes = config_.hot_cache_bytes;
    s.hot_cache_resident_bytes = hot_resident_bytes_;
    s.hot_cache_resident_files = hot_resident_.size();
    s.hot_cache_hits = hot_hits_;
    s.hot_cache_hit_bytes = hot_hit_bytes_;
  }
  std::lock_guard<std::mutex> lock(storage_mu_);
  s.reconstructions = reconstructions_;
  return s;
}

}  // namespace mri::dfs
