#include "dfs/namenode.hpp"

#include "common/error.hpp"
#include "dfs/path.hpp"

namespace mri::dfs {

NameNode::NameNode() : root_(std::make_unique<Inode>()) {}

template <typename Fn>
void NameNode::for_each_file(Inode& node, const std::string& path,
                             const Fn& fn) {
  if (!node.is_dir) {
    fn(path, node);
    return;
  }
  for (const auto& [name, child] : node.children) {
    for_each_file(*child, path + "/" + name, fn);
  }
}

NameNode::Inode* NameNode::find(const std::string& path) const {
  Inode* node = root_.get();
  for (const auto& part : components(path)) {
    if (!node->is_dir) return nullptr;
    auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

NameNode::Inode* NameNode::find_or_create_dir(const std::string& path) {
  Inode* node = root_.get();
  for (const auto& part : components(path)) {
    MRI_CHECK_MSG(node->is_dir, "path component is a file: " << path);
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      it = node->children.emplace(part, std::make_unique<Inode>()).first;
    }
    node = it->second.get();
    if (!node->is_dir) {
      throw DfsError("cannot create directory over file: " + path);
    }
  }
  return node;
}

void NameNode::mkdirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  find_or_create_dir(normalize(path));
}

void NameNode::commit_file(const std::string& raw_path,
                           std::vector<BlockLocation> blocks, bool overwrite,
                           StorageTier tier) {
  const std::string path = normalize(raw_path);
  MRI_REQUIRE(path != "/", "cannot create a file at the root path");
  std::lock_guard<std::mutex> lock(mu_);
  Inode* dir = find_or_create_dir(parent(path));
  const std::string name = basename(path);
  auto it = dir->children.find(name);
  if (it != dir->children.end()) {
    if (!overwrite || it->second->is_dir) {
      throw DfsError("path already exists: " + path);
    }
    dir->children.erase(it);
  }
  auto file = std::make_unique<Inode>();
  file->is_dir = false;
  file->size = 0;
  for (const auto& b : blocks) file->size += b.length;
  file->blocks = std::move(blocks);
  file->tier = tier;
  dir->children.emplace(name, std::move(file));
}

StorageTier NameNode::file_tier(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  if (node == nullptr || node->is_dir) {
    throw DfsError("no such file: " + normalize(path));
  }
  return node->tier;
}

void NameNode::set_file_tier(const std::string& path, StorageTier tier) {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  if (node == nullptr || node->is_dir) {
    throw DfsError("no such file: " + normalize(path));
  }
  node->tier = tier;
}

bool NameNode::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find(normalize(path)) != nullptr;
}

bool NameNode::is_directory(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  return node != nullptr && node->is_dir;
}

bool NameNode::is_file(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  return node != nullptr && !node->is_dir;
}

std::uint64_t NameNode::file_size(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  if (node == nullptr || node->is_dir) {
    throw DfsError("no such file: " + normalize(path));
  }
  return node->size;
}

std::vector<BlockLocation> NameNode::file_blocks(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(path));
  if (node == nullptr || node->is_dir) {
    throw DfsError("no such file: " + normalize(path));
  }
  return node->blocks;
}

std::vector<std::string> NameNode::list(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  Inode* node = find(normalize(dir));
  if (node == nullptr || !node->is_dir) {
    throw DfsError("no such directory: " + normalize(dir));
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;  // std::map keeps them sorted
}

std::vector<NameNode::FileInfo> NameNode::snapshot_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FileInfo> out;
  for_each_file(*root_, "", [&out](const std::string& path, const Inode& f) {
    out.push_back(FileInfo{path, f.tier, f.blocks});
  });
  return out;
}

std::vector<BlockLocation> NameNode::remove(
    const std::string& raw_path, bool recursive,
    std::vector<std::string>* removed_paths) {
  const std::string path = normalize(raw_path);
  MRI_REQUIRE(path != "/", "refusing to remove the DFS root");
  std::lock_guard<std::mutex> lock(mu_);
  Inode* dir = find(parent(path));
  if (dir == nullptr || !dir->is_dir) throw DfsError("no such path: " + path);
  auto it = dir->children.find(basename(path));
  if (it == dir->children.end()) throw DfsError("no such path: " + path);
  Inode* victim = it->second.get();
  if (victim->is_dir && !victim->children.empty() && !recursive) {
    throw DfsError("directory not empty (pass recursive=true): " + path);
  }
  std::vector<BlockLocation> removed;
  for_each_file(*victim, path, [&](const std::string& p, const Inode& f) {
    removed.insert(removed.end(), f.blocks.begin(), f.blocks.end());
    if (removed_paths != nullptr) removed_paths->push_back(p);
  });
  dir->children.erase(it);
  return removed;
}

void NameNode::rename(const std::string& raw_from, const std::string& raw_to) {
  const std::string from = normalize(raw_from);
  const std::string to = normalize(raw_to);
  MRI_REQUIRE(from != "/" && to != "/", "cannot rename the DFS root");
  MRI_REQUIRE(to.rfind(from + "/", 0) != 0,
              "cannot rename a directory into itself: " << from << " -> " << to);
  std::lock_guard<std::mutex> lock(mu_);
  Inode* from_dir = find(parent(from));
  if (from_dir == nullptr || !from_dir->is_dir)
    throw DfsError("no such path: " + from);
  auto it = from_dir->children.find(basename(from));
  if (it == from_dir->children.end()) throw DfsError("no such path: " + from);
  if (find(to) != nullptr) throw DfsError("target already exists: " + to);
  Inode* to_dir = find_or_create_dir(parent(to));
  auto node = std::move(it->second);
  from_dir->children.erase(it);
  to_dir->children.emplace(basename(to), std::move(node));
}

std::size_t NameNode::file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for_each_file(*root_, "", [&n](const std::string&, const Inode&) { ++n; });
  return n;
}

void NameNode::update_blocks(
    const std::function<void(const std::string& path,
                             std::vector<BlockLocation>& blocks)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for_each_file(*root_, "", [&fn](const std::string& path, Inode& f) {
    fn(path, f.blocks);
  });
}

std::uint64_t NameNode::total_logical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for_each_file(*root_, "",
                [&n](const std::string&, const Inode& f) { n += f.size; });
  return n;
}

}  // namespace mri::dfs
