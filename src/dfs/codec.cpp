#include "dfs/codec.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "dfs/ec/rs_codec.hpp"

namespace mri::dfs {

namespace {

BlockData first_fetched(const std::vector<BlockData>& slots) {
  for (const BlockData& s : slots) {
    if (s != nullptr) return s;
  }
  MRI_CHECK_MSG(false, "no slot was fetched");
  return nullptr;
}

std::vector<const std::uint8_t*> cell_pointers(
    const std::vector<BlockData>& slots) {
  std::vector<const std::uint8_t*> ptrs(slots.size(), nullptr);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] != nullptr) {
      ptrs[s] = reinterpret_cast<const std::uint8_t*>(slots[s]->data());
    }
  }
  return ptrs;
}

class CopyCodec final : public BlockCodec {
 public:
  int k(const BlockLocation&) const override { return 1; }
  int width(const BlockLocation&, int replication) const override {
    return replication;
  }
  int cell(int) const override { return 0; }
  bool decodes() const override { return false; }

  std::vector<BlockData> encode(const BlockLocation&,
                                const BlockData& payload) const override {
    return {payload};  // every copy shares this one object
  }
  BlockData assemble(const BlockLocation&, const std::vector<BlockData>& slots,
                     std::uint64_t*) const override {
    return first_fetched(slots);  // served as stored, no memcpy
  }
  BlockData rebuild(const BlockLocation&, const std::vector<BlockData>& slots,
                    int) const override {
    return first_fetched(slots);
  }

  // HDFS default policy: first replica on the writer (every client is a
  // datanode here), second rack-local, third off-rack. Hash-pick within each
  // candidate set so the layout stays a deterministic function of the path;
  // fall back to any unused live node when a set is empty (single-rack
  // clusters, mostly-dead racks).
  std::vector<int> place_racked(const std::vector<int>& live,
                                const net::Topology& topo, int first,
                                std::uint64_t base, int width) const override {
    std::vector<int> slots{first};
    const auto taken = [&slots](int n) {
      return std::find(slots.begin(), slots.end(), n) != slots.end();
    };
    const auto pick = [&](const auto& eligible, std::uint64_t h) {
      std::vector<int> cand;
      for (int n : live) {
        if (!taken(n) && eligible(n)) cand.push_back(n);
      }
      if (cand.empty()) {
        for (int n : live) {
          if (!taken(n)) cand.push_back(n);
        }
      }
      MRI_CHECK(!cand.empty());
      return cand[static_cast<std::size_t>(h % cand.size())];
    };
    const int home_rack = topo.rack_of(first);
    if (width >= 2) {
      slots.push_back(pick(
          [&](int n) { return topo.rack_of(n) == home_rack; }, base + 1));
    }
    for (int r = 2; r < width; ++r) {
      slots.push_back(pick([&](int n) { return topo.rack_of(n) != home_rack; },
                           base + static_cast<std::uint64_t>(r)));
    }
    return slots;
  }

  // The write pipeline: the writer streams to the first replica, which
  // forwards to the second, and so on. Without rack awareness the first
  // replica usually isn't the writer's node — that extra hop is real
  // network traffic the rack-aware policy exists to remove.
  void log_write(const BlockLocation& loc, int writer,
                 std::vector<net::Transfer>* out) const override {
    if (writer >= 0 && writer != loc.replicas.front()) {
      out->push_back(net::Transfer{writer, loc.replicas.front(), loc.length,
                                   net::TransferKind::kWrite});
    }
    for (std::size_t r = 1; r < loc.replicas.size(); ++r) {
      out->push_back(net::Transfer{loc.replicas[r - 1], loc.replicas[r],
                                   loc.length, net::TransferKind::kWrite});
    }
  }

  // Copies carry no position: the dead holder is erased and a rebuilt copy
  // is appended, so the first surviving replica stays the primary.
  int drop(BlockLocation* loc, int node) const override {
    auto it = std::find(loc->replicas.begin(), loc->replicas.end(), node);
    if (it == loc->replicas.end()) return 0;
    loc->replicas.erase(it);
    return 1;
  }

  // Any copy is the whole block, so proximity decides.
  bool reads_closest_first() const override { return true; }
  bool repairs_in_source_rack() const override { return true; }
  bool crc_on_read() const override { return true; }
};

class StripeCodec final : public BlockCodec {
 public:
  int k(const BlockLocation& loc) const override { return loc.ec_k; }
  int width(const BlockLocation& loc, int) const override {
    return loc.ec_k + loc.ec_m;
  }
  int cell(int slot) const override { return slot; }
  bool decodes() const override { return true; }

  // k data cells (the payload zero-padded to equal length) then m parity
  // cells.
  std::vector<BlockData> encode(const BlockLocation& loc,
                                const BlockData& payload) const override {
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    const auto len = static_cast<std::size_t>(loc.length);
    std::vector<BlockData> cells;
    cells.reserve(static_cast<std::size_t>(loc.ec_k + loc.ec_m));
    std::vector<const std::uint8_t*> data_ptrs;
    for (int i = 0; i < loc.ec_k; ++i) {
      auto cell =
          std::make_shared<std::vector<std::byte>>(cell_len, std::byte{0});
      const std::size_t begin = static_cast<std::size_t>(i) * cell_len;
      if (begin < len) {
        std::memcpy(cell->data(), payload->data() + begin,
                    std::min(cell_len, len - begin));
      }
      data_ptrs.push_back(reinterpret_cast<const std::uint8_t*>(cell->data()));
      cells.push_back(std::move(cell));
    }
    const ec::RsCodec rs(loc.ec_k, loc.ec_m);
    for (const auto& p : rs.encode(data_ptrs, cell_len)) {
      auto cell = std::make_shared<std::vector<std::byte>>(cell_len);
      std::memcpy(cell->data(), p.data(), cell_len);
      cells.push_back(std::move(cell));
    }
    return cells;
  }

  // A healthy stripe is a plain concatenation of its data cells; missing
  // data cells are decoded from the fetched survivors first.
  BlockData assemble(const BlockLocation& loc,
                     const std::vector<BlockData>& slots,
                     std::uint64_t* decoded) const override {
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    const std::vector<const std::uint8_t*> ptrs = cell_pointers(slots);
    std::vector<int> missing_data;
    for (int i = 0; i < loc.ec_k; ++i) {
      if (ptrs[static_cast<std::size_t>(i)] == nullptr) {
        missing_data.push_back(i);
      }
    }
    std::vector<std::vector<std::uint8_t>> rebuilt;
    if (!missing_data.empty()) {
      rebuilt = ec::RsCodec(loc.ec_k, loc.ec_m)
                    .reconstruct(ptrs, cell_len, missing_data);
      *decoded += static_cast<std::uint64_t>(missing_data.size()) * cell_len;
    }
    auto out = std::make_shared<std::vector<std::byte>>(
        static_cast<std::size_t>(loc.length));
    std::size_t pos = 0;
    std::size_t next_rebuilt = 0;
    for (int i = 0; i < loc.ec_k && pos < loc.length; ++i) {
      const std::uint8_t* src = ptrs[static_cast<std::size_t>(i)];
      if (src == nullptr) src = rebuilt[next_rebuilt++].data();
      const std::size_t take =
          std::min(cell_len, static_cast<std::size_t>(loc.length) - pos);
      std::memcpy(out->data() + pos, src, take);
      pos += take;
    }
    return out;
  }

  BlockData rebuild(const BlockLocation& loc,
                    const std::vector<BlockData>& slots,
                    int slot) const override {
    const auto cell_len = static_cast<std::size_t>(loc.cell_bytes());
    const auto rebuilt = ec::RsCodec(loc.ec_k, loc.ec_m)
                             .reconstruct(cell_pointers(slots), cell_len, {slot});
    auto payload = std::make_shared<std::vector<std::byte>>(cell_len);
    std::memcpy(payload->data(), rebuilt.front().data(), cell_len);
    return payload;
  }

  // Every cell on a distinct node: the first writer-local (reads of healthy
  // stripes start with a local cell), the rest round-robin across the other
  // racks so any single rack loss costs at most a few cells per stripe.
  std::vector<int> place_racked(const std::vector<int>& live,
                                const net::Topology& topo, int first,
                                std::uint64_t, int width) const override {
    std::vector<int> slots{first};
    const int home_rack = topo.rack_of(first);
    std::map<int, std::vector<int>> by_rack;
    for (int n : live) {
      if (n != first) by_rack[topo.rack_of(n)].push_back(n);
    }
    std::vector<int> rack_order;
    rack_order.reserve(by_rack.size());
    for (const auto& [r, nodes] : by_rack) rack_order.push_back(r);
    const auto past_home =
        std::upper_bound(rack_order.begin(), rack_order.end(), home_rack);
    std::rotate(rack_order.begin(), past_home, rack_order.end());
    std::map<int, std::size_t> cursor;
    while (static_cast<int>(slots.size()) < width) {
      bool progress = false;
      for (int r : rack_order) {
        if (static_cast<int>(slots.size()) == width) break;
        const auto& nodes = by_rack[r];
        std::size_t& next = cursor[r];
        if (next < nodes.size()) {
          slots.push_back(nodes[next++]);
          progress = true;
        }
      }
      MRI_CHECK(progress);  // live >= width, so nodes can't run out
    }
    return slots;
  }

  // Stripes stream cells from the client in a star, not a pipeline.
  void log_write(const BlockLocation& loc, int writer,
                 std::vector<net::Transfer>* out) const override {
    if (writer < 0) return;
    for (int holder : loc.replicas) {
      if (holder == writer) continue;
      out->push_back(net::Transfer{writer, holder, loc.cell_bytes(),
                                   net::TransferKind::kWrite});
    }
  }

  // Slot position is cell identity: a lost cell is marked -1, never erased.
  int drop(BlockLocation* loc, int node) const override {
    int lost = 0;
    for (int& holder : loc->replicas) {
      if (holder == node) {
        holder = -1;
        ++lost;
      }
    }
    return lost;
  }

  // Slot order puts the data cells first, so a healthy read never decodes;
  // repairs take the smallest-id free node.
  bool reads_closest_first() const override { return false; }
  bool repairs_in_source_rack() const override { return false; }
  // A CRC of every served cell would cost a real host pass over each
  // read's bytes — about 187 MB more per op of the storage-chaos benchmark
  // workload (540 MB verified minus 353 MB scrubbed) — so stripe reads rely
  // on the corrupt marks and leave the byte-level check to the scrubber.
  bool crc_on_read() const override { return false; }
};

}  // namespace

const BlockCodec& codec_for(const BlockLocation& loc) {
  static const CopyCodec copies;
  static const StripeCodec stripes;
  if (loc.is_ec()) return stripes;
  return copies;
}

}  // namespace mri::dfs
