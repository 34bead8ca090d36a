// The DFS namespace: a tree of directories and files, where a file is a
// list of block locations. All operations are atomic under one mutex (the
// real HDFS namenode is likewise a single serialized namespace).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dfs/block.hpp"

namespace mri::dfs {

class NameNode {
 public:
  NameNode();

  /// Creates a directory and any missing ancestors. Idempotent.
  void mkdirs(const std::string& path);

  /// Registers a file with its committed blocks. Parent directories are
  /// created implicitly (matching HDFS create semantics). Overwrite of an
  /// existing file is an error unless `overwrite`.
  void commit_file(const std::string& path, std::vector<BlockLocation> blocks,
                   bool overwrite = false,
                   StorageTier tier = StorageTier::kDisk);

  /// The tier the file was committed on (or moved to by set_file_tier).
  StorageTier file_tier(const std::string& path) const;
  /// Retiers a file in place — spill (memory -> disk) leaves the payload on
  /// the same datanode; only the accounting model for future reads changes.
  void set_file_tier(const std::string& path, StorageTier tier);

  bool exists(const std::string& path) const;
  bool is_directory(const std::string& path) const;
  bool is_file(const std::string& path) const;

  std::uint64_t file_size(const std::string& path) const;
  std::vector<BlockLocation> file_blocks(const std::string& path) const;

  /// Sorted child names of a directory.
  std::vector<std::string> list(const std::string& dir) const;

  /// Removes a file, or a directory (recursively when `recursive`).
  /// Returns the block locations of every removed file so the caller can
  /// evict them from datanodes; `removed_paths` (may be null) receives the
  /// full path of every removed file for cache/lineage invalidation.
  std::vector<BlockLocation> remove(const std::string& path,
                                    bool recursive = false,
                                    std::vector<std::string>* removed_paths =
                                        nullptr);

  /// Atomic rename of a file or directory.
  void rename(const std::string& from, const std::string& to);

  /// Number of files in the whole namespace (used by §6.1 tests).
  std::size_t file_count() const;

  /// One file's identity and block map, as captured by snapshot_files().
  struct FileInfo {
    std::string path;
    StorageTier tier = StorageTier::kDisk;
    std::vector<BlockLocation> blocks;
  };

  /// Every file in the namespace with its tier and block locations, in
  /// deterministic sorted tree-walk order — the iteration surface for the
  /// integrity scrubber and the chaos corrupt-block victim pick (unlike the
  /// flattened remove() output, per-file path/block alignment is kept).
  std::vector<FileInfo> snapshot_files() const;

  /// Sum of file sizes across the namespace: the logical bytes stored,
  /// independent of replication factor or parity overhead.
  std::uint64_t total_logical_bytes() const;

  /// Calls `fn(path, blocks)` for every file in sorted tree-walk order,
  /// atomically under the namespace lock; `fn` may edit the block list in
  /// place (the node-loss repair walk). Blocks whose every slot died stay
  /// registered, so reads surface UnrecoverableBlock instead of "no such
  /// file".
  void update_blocks(
      const std::function<void(const std::string& path,
                               std::vector<BlockLocation>& blocks)>& fn);

 private:
  struct Inode {
    bool is_dir = true;
    std::map<std::string, std::unique_ptr<Inode>> children;  // dirs only
    std::vector<BlockLocation> blocks;                       // files only
    std::uint64_t size = 0;
    StorageTier tier = StorageTier::kDisk;                   // files only
  };

  Inode* find(const std::string& path) const;
  Inode* find_or_create_dir(const std::string& path);
  /// Calls fn(path, file_inode) for every file under `node`, in sorted
  /// order.
  template <typename Fn>
  static void for_each_file(Inode& node, const std::string& path,
                            const Fn& fn);

  mutable std::mutex mu_;
  std::unique_ptr<Inode> root_;
};

}  // namespace mri::dfs
