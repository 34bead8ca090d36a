#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "dfs/dfs.hpp"
#include "dfs/ec/rs_codec.hpp"
#include "dfs/integrity/crc32c.hpp"
#include "engine/block_cache.hpp"
#include "linalg/kernels/kernel.hpp"
#include "linalg/lu.hpp"
#include "linalg/triangular.hpp"
#include "mapreduce/scheduler.hpp"
#include "matrix/generate.hpp"
#include "net/flow_sim.hpp"
#include "net/topology.hpp"
#include "sim/cluster.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using mri::Index;
using mri::Matrix;

/// Runs `fn` until at least `min_reps` calls and `min_seconds` have passed
/// and returns `work` divided by the median call's wall time.
template <typename Fn>
double rate(double work, Fn&& fn, int min_reps = 3,
            double min_seconds = 0.2) {
  std::vector<double> times;
  mri::Stopwatch total;
  while (static_cast<int>(times.size()) < min_reps ||
         total.seconds() < min_seconds) {
    mri::Stopwatch one;
    fn();
    times.push_back(one.seconds());
  }
  return work / median(times);
}

/// A well-conditioned lower-triangular matrix: unit diagonal, small
/// off-diagonal entries, so its inverse stays bounded at any order.
Matrix bounded_lower(Index n, std::uint64_t seed) {
  Matrix l(n, n);
  mri::Xoshiro256 rng(seed);
  const double scale = 1.0 / static_cast<double>(n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) l(i, j) = rng.uniform(-scale, scale);
    l(i, i) = 1.0;
  }
  return l;
}

mri::dfs::DfsConfig dfs_config(const ReplayShape& s, bool ec) {
  mri::dfs::DfsConfig c;
  if (ec) c.storage_policy = mri::dfs::StoragePolicy::kErasureCoded;
  c.verify_checksums = s.verify_checksums;
  return c;
}

/// Write and read GB/s of one file under one storage policy.
void dfs_rates(const ReplayShape& s, bool ec, const char* suffix,
               std::map<std::string, double>& out) {
  // RS(6,3) spreads 9 cells over distinct nodes.
  const int nodes = ec ? std::max(s.nodes, 9) : s.nodes;
  mri::dfs::Dfs fs(nodes, dfs_config(s, ec));
  const std::vector<double> payload(s.file_bytes / sizeof(double), 1.25);
  const double bytes = static_cast<double>(payload.size() * sizeof(double));
  int file = 0;
  out[std::string("dfs.write_gbps_") + suffix] =
      rate(bytes, [&] {
        fs.write_doubles("/Root/w/part-" + std::to_string(file++), payload);
      }) * 1e-9;
  out[std::string("dfs.read_gbps_") + suffix] =
      rate(bytes, [&] {
        const std::vector<double> back = fs.read_doubles("/Root/w/part-0");
        if (back.size() != payload.size()) throw std::runtime_error("short");
      }) * 1e-9;
}

}  // namespace

std::map<std::string, double> replay_layers(const ReplayShape& s,
                                            SpanRecorder& spans) {
  std::map<std::string, double> out;
  namespace k = mri::kernels;
  const k::KernelContext ctx;  // process default backend, one thread

  {
    Span span(spans, "replay.kernels", "linalg/kernels");
    const Index t = s.tile;
    const Matrix a = mri::random_matrix(t, s.seed);
    const Matrix b = mri::random_matrix(t, s.seed + 1);
    Matrix c(t, t);
    const double gemm_flop = 2.0 * static_cast<double>(t * t * t);
    out["kernels.gemm_gflops"] =
        rate(gemm_flop, [&] {
          ctx.gemm(k::GemmMode::kAssign, t, t, t, a.data().data(), t,
                   b.data().data(), t, c.data().data(), t);
        }) * 1e-9;
    out["kernels.gemm_bt_gflops"] =
        rate(gemm_flop, [&] {
          ctx.gemm_bt(k::GemmMode::kAssign, t, t, t, a.data().data(), t,
                      b.data().data(), t, c.data().data(), t);
        }) * 1e-9;
    const Matrix l = bounded_lower(t, s.seed + 2);
    out["kernels.trsm_gflops"] =
        rate(static_cast<double>(t * t * t), [&] {
          Matrix x = b;
          ctx.trsm_lower_left(false, t, t, l.data().data(), t,
                              x.data().data(), t);
        }) * 1e-9;
  }

  {
    Span span(spans, "replay.linalg", "linalg");
    const Index nb = s.lu_order;
    const Matrix a = mri::random_matrix(nb, s.seed + 3);
    out["linalg.lu_gflops"] =
        rate(2.0 * static_cast<double>(nb * nb * nb) / 3.0,
             [&] { (void)mri::lu_decompose(a); }) * 1e-9;

    const Index n = s.tri_n;
    const Matrix l = bounded_lower(n, s.seed + 4);
    std::vector<Index> columns;
    double tri_flop = 0.0;
    for (Index j = 0; j < n; j += s.tri_m0) {
      columns.push_back(j);
      tri_flop += static_cast<double>((n - j) * (n - j));
    }
    out["linalg.tri_inv_gflops"] =
        rate(tri_flop, [&] { (void)mri::invert_lower_columns(l, columns); }) *
        1e-9;

    const Index t = s.tile;
    Matrix u(t, t);
    const Matrix lt = bounded_lower(t, s.seed + 5);
    for (Index i = 0; i < t; ++i) {
      for (Index j = 0; j <= i; ++j) u(j, i) = lt(i, j);
    }
    out["linalg.tri_inv_upper_gflops"] =
        rate(static_cast<double>(t * t * t) / 3.0,
             [&] { (void)mri::invert_upper_via_transpose(u); }) * 1e-9;
  }

  {
    Span span(spans, "replay.dfs", "dfs");
    dfs_rates(s, false, "rep3", out);
    dfs_rates(s, true, "rs63", out);
    mri::dfs::Dfs fs(s.nodes, dfs_config(s, false));
    const std::vector<double> word(1, 1.0);
    int i = 0;
    // create + open + file_blocks + remove at the pipeline's path depth.
    out["dfs.ns_ops_per_s"] = rate(4.0, [&] {
      const std::string path = "/Root/r" + std::to_string(i % 64) +
                               "/lu/L2/part-" + std::to_string(i);
      ++i;
      fs.write_doubles(path, word);
      (void)fs.open(path);
      (void)fs.file_blocks(path);
      fs.remove(path);
    });
  }

  const std::size_t cell = std::max<std::size_t>(64, s.file_bytes / 6);
  {
    Span span(spans, "replay.integrity", "dfs/integrity");
    std::vector<std::byte> buf(cell);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::byte>(i * 131u + 7u);
    }
    out["integrity.crc32c_gbps"] =
        rate(static_cast<double>(cell),
             [&] { (void)mri::dfs::crc32c(buf); }) * 1e-9;
  }

  {
    Span span(spans, "replay.ec", "dfs/ec");
    const mri::dfs::ec::RsCodec codec(6, 3);
    std::vector<std::vector<std::uint8_t>> data(
        6, std::vector<std::uint8_t>(cell));
    for (std::size_t c = 0; c < data.size(); ++c) {
      for (std::size_t i = 0; i < cell; ++i) {
        data[c][i] = static_cast<std::uint8_t>(i * (c + 3) + c);
      }
    }
    std::vector<const std::uint8_t*> ptrs;
    for (const auto& d : data) ptrs.push_back(d.data());
    std::vector<std::vector<std::uint8_t>> parity;
    out["ec.encode_gbps"] =
        rate(6.0 * static_cast<double>(cell),
             [&] { parity = codec.encode(ptrs, cell); }) * 1e-9;
    // Degraded stripe: three data cells lost, rebuilt from the survivors.
    const std::vector<const std::uint8_t*> cells = {
        nullptr, ptrs[1],          nullptr,          ptrs[3],         nullptr,
        ptrs[5], parity[0].data(), parity[1].data(), parity[2].data()};
    out["ec.decode_gbps"] =
        rate(3.0 * static_cast<double>(cell), [&] {
          (void)codec.reconstruct(cells, cell, {0, 2, 4});
        }) * 1e-9;
  }

  const mri::CostModel model = mri::CostModel::ec2_medium();
  {
    Span span(spans, "replay.net", "net");
    mri::net::TopologyOptions opts;
    opts.kind = mri::net::TopologyKind::kRacked;
    opts.racks = 3;
    opts.oversubscription = 4.0;
    const mri::net::Topology topo(std::max(s.nodes, 3),
                                  model.network_bandwidth, opts);
    // Every task of the widest phase reads one file and pipelines two
    // replica copies: three flows per task.
    std::vector<mri::net::Flow> flows;
    mri::Xoshiro256 rng(s.seed + 6);
    const int hosts = std::max(s.nodes, 3);
    for (int t = 0; t < 3 * s.phase_tasks; ++t) {
      mri::net::Flow f;
      f.src = static_cast<int>(rng.next() % static_cast<std::uint64_t>(hosts));
      f.dst = static_cast<int>(rng.next() % static_cast<std::uint64_t>(hosts));
      f.bytes = s.file_bytes;
      f.start = rng.uniform(0.0, 1.0);
      f.tag = t;
      flows.push_back(f);
    }
    out["net.flows_per_s"] = rate(static_cast<double>(flows.size()), [&] {
      (void)mri::net::simulate_flows(topo, flows);
    });
  }

  {
    Span span(spans, "replay.mapreduce", "mapreduce");
    mri::Cluster cluster(s.nodes, model, s.seed);
    if (s.racked) {
      mri::net::TopologyOptions opts;
      opts.kind = mri::net::TopologyKind::kRacked;
      opts.racks = 3;
      opts.oversubscription = 4.0;
      cluster.set_topology(std::make_shared<const mri::net::Topology>(
          s.nodes, model.network_bandwidth, opts));
    }
    std::vector<std::vector<mri::mr::Attempt>> attempts(
        static_cast<std::size_t>(s.phase_tasks));
    for (int t = 0; t < s.phase_tasks; ++t) {
      mri::mr::Attempt a;
      a.io.bytes_read = s.file_bytes;
      a.io.bytes_transferred = s.file_bytes;
      a.io.mults = a.io.adds = s.file_bytes;
      if (s.racked) {
        mri::net::Transfer tr;
        tr.src = (t + 1) % s.nodes;
        tr.dst = t % s.nodes;
        tr.bytes = s.file_bytes;
        a.transfers.push_back(tr);
      }
      attempts[static_cast<std::size_t>(t)].push_back(a);
    }
    out["mapreduce.attempts_per_s"] =
        rate(static_cast<double>(s.phase_tasks),
             [&] { (void)mri::mr::schedule_phase(cluster, attempts); });
  }

  {
    Span span(spans, "replay.pool", "common");
    mri::ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    constexpr std::size_t kTasks = 20000;
    out["common.pool_tasks_per_s"] =
        rate(static_cast<double>(kTasks), [&] {
          pool.parallel_for(kTasks, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          });
        });
  }

  {
    Span span(spans, "replay.engine", "engine");
    std::uint64_t epoch = 0;
    // One "job": insert a task output per node, touch it as the consumer,
    // then run the job-boundary eviction pass.
    out["engine.cache_ops_per_s"] =
        rate(static_cast<double>(2 * s.nodes + 1) * 64.0, [&] {
          mri::engine::BlockCache cache(s.nodes, s.cache_bytes_per_node);
          for (int job = 0; job < 64; ++job) {
            ++epoch;
            for (int n = 0; n < s.nodes; ++n) {
              const std::string path = "/Root/j" + std::to_string(job) +
                                       "/part-" + std::to_string(n);
              cache.insert(path, n, s.file_bytes, epoch);
              (void)cache.touch(path, epoch);
            }
            (void)cache.collect_evictions();
          }
        });
  }
  return out;
}

}  // namespace perfbench
