// Runs a DFS test once per storage policy. Copies and RS stripes share one
// read, node-loss repair, corrupt-repair and scrub path, so a behaviour of
// that path must hold under both codecs.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "dfs/dfs.hpp"

namespace mri::dfs {

/// `cfg` under `policy`. Stripes are RS(2,1), the narrowest shape with
/// parity, so the tests' small clusters can hold one.
inline DfsConfig under(StoragePolicy policy, DfsConfig cfg = {}) {
  cfg.storage_policy = policy;
  cfg.ec = EcParams{2, 1};
  return cfg;
}

inline bool striped(StoragePolicy policy) {
  return policy == StoragePolicy::kErasureCoded;
}

inline std::string policy_name(
    const ::testing::TestParamInfo<StoragePolicy>& info) {
  return striped(info.param) ? "Stripes" : "Copies";
}

/// The integrity counter a repair under `policy` lands in.
inline std::int64_t repaired_by(StoragePolicy policy,
                                const IntegrityReport& stats) {
  return striped(policy) ? stats.cells_repaired_ec
                         : stats.cells_repaired_copy;
}

inline const auto kBothPolicies = ::testing::Values(
    StoragePolicy::kReplicate, StoragePolicy::kErasureCoded);

}  // namespace mri::dfs
