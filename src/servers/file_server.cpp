#include "servers/file_server.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "naming/parse.hpp"
#include "common/annotate.hpp"

namespace v::servers {

using naming::ContextId;
using naming::ContextPair;
using naming::DescriptorType;
using naming::ObjectDescriptor;

namespace {
/// Simulated wall-clock seconds for mtime stamps.
std::uint32_t sim_seconds(ipc::Process& self) {
  return static_cast<std::uint32_t>(self.now() / sim::kSecond);
}
}  // namespace

// ---------------------------------------------------------------------------
// FileInstance: an open file with the disk timing model
// ---------------------------------------------------------------------------

class FileInstance : public io::InstanceObject {
 public:
  FileInstance(FileServer& server, FileServer::InodeId inode,
               std::uint16_t flags, DiskModel disk) noexcept
      : server_(server), inode_(inode), flags_(flags), disk_(disk) {}

  [[nodiscard]] FileServer::InodeId inode() const noexcept { return inode_; }

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = flags_;
    info.block_bytes = 512;
    const auto* node = server_.find_inode(inode_);
    info.size_bytes =
        node != nullptr ? static_cast<std::uint32_t>(node->data.size()) : 0;
    return info;
  }

  V_BORROWS_SPAN
  sim::Co<Result<std::size_t>> read_block(ipc::Process& self,
                                          std::uint32_t block,
                                          std::span<std::byte> out) override {
    if ((flags_ & io::kInstanceReadable) == 0) {
      co_return ReplyCode::kNotReadable;
    }
    auto* node = server_.find_inode(inode_);
    if (node == nullptr) co_return ReplyCode::kBadState;  // file deleted
    const std::size_t block_bytes = 512;
    const std::size_t offset = static_cast<std::size_t>(block) * block_bytes;
    if (offset >= node->data.size()) co_return ReplyCode::kEndOfFile;

    if (disk_ == DiskModel::kDisk) {
      // One-page read-ahead: if this is the prefetched page, wait only for
      // the remaining prefetch time; otherwise pay a full page read.
      const sim::SimTime now = self.now();
      if (block == prefetched_block_) {
        if (prefetch_ready_ > now) {
          co_await self.delay(prefetch_ready_ - now);
        }
      } else {
        co_await self.delay(self.params().disk_page);
      }
      // Start prefetching the next page.  The (single-threaded) server
      // only issues the next disk read after it has shipped this page to
      // the client, so the prefetch completes one ship-time plus one disk
      // read after this point — the partial overlap that yields the
      // paper's ~17 ms/page streaming rate over a 15 ms/page disk.
      const auto ship_estimate =
          self.params().move_to_cost(block_bytes, /*local=*/false);
      prefetched_block_ = block + 1;
      prefetch_ready_ =
          self.now() + ship_estimate + self.params().disk_page;
      node = server_.find_inode(inode_);  // revalidate after waiting
      if (node == nullptr) co_return ReplyCode::kBadState;
    }
    const std::size_t n =
        std::min({out.size(), block_bytes, node->data.size() - offset});
    std::memcpy(out.data(), node->data.data() + offset, n);
    server_.metric_inc(self, server_.m_bytes_read_, n);
    co_return n;
  }

  V_BORROWS_SPAN
  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t block,
      std::span<const std::byte> data) override {
    if ((flags_ & io::kInstanceWriteable) == 0) {
      co_return ReplyCode::kNotWriteable;
    }
    auto* node = server_.find_inode(inode_);
    if (node == nullptr) co_return ReplyCode::kBadState;
    const std::size_t block_bytes = 512;
    if (data.size() > block_bytes) co_return ReplyCode::kBadArgs;
    if (disk_ == DiskModel::kDisk) {
      co_await self.delay(self.params().disk_page);
      node = server_.find_inode(inode_);
      if (node == nullptr) co_return ReplyCode::kBadState;
    }
    const std::size_t offset = static_cast<std::size_t>(block) * block_bytes;
    if (offset + data.size() > node->data.size()) {
      node->data.resize(offset + data.size());
    }
    if (!data.empty()) {
      std::memcpy(node->data.data() + offset, data.data(), data.size());
    }
    node->mtime = sim_seconds(self);
    server_.metric_inc(self, server_.m_bytes_written_, data.size());
    co_return data.size();
  }

 private:
  FileServer& server_;
  FileServer::InodeId inode_;
  std::uint16_t flags_;
  DiskModel disk_;
  std::uint32_t prefetched_block_ = 0xffffffff;
  sim::SimTime prefetch_ready_ = 0;
};

// ---------------------------------------------------------------------------
// Store management
// ---------------------------------------------------------------------------

FileServer::FileServer(std::string server_name, DiskModel disk,
                       bool register_service, naming::TeamConfig team)
    : CsnhServer(team),
      name_(std::move(server_name)),
      disk_(disk),
      register_service_(register_service) {
  auto& root = alloc(Inode::Kind::kDirectory, 0, "");
  root_ = root.id;
}

FileServer::Inode& FileServer::alloc(Inode::Kind kind, InodeId parent,
                                     std::string name) {
  const InodeId id = next_inode_++;
  if (inodes_.size() <= id) inodes_.resize(id + 1);
  V_CHECK(inodes_[id] == nullptr);
  inodes_[id] = std::make_unique<Inode>();
  Inode& node = *inodes_[id];
  node.id = id;
  node.kind = kind;
  node.parent = parent;
  node.name_in_parent = std::move(name);
  ++live_inodes_;
  return node;
}

FileServer::Inode& FileServer::inode_at(InodeId id) {
  Inode* node = find_inode(id);
  V_CHECK(node != nullptr);
  return *node;
}

FileServer::Inode* FileServer::child(Inode& dir, std::string_view name) {
  auto it = dir.entries.find(name);
  return it != dir.entries.end() ? find_inode(it->second) : nullptr;
}

naming::ContextId FileServer::mkdirs(std::string_view path) {
  InodeId current = root_;
  std::size_t index = 0;
  for (;;) {
    std::size_t next = 0;
    const auto component = naming::next_component(path, index, next);
    if (component.empty()) break;
    auto& dir = inode_at(current);
    V_CHECK(dir.kind == Inode::Kind::kDirectory);
    if (auto* existing = child(dir, component)) {
      V_CHECK(existing->kind == Inode::Kind::kDirectory);
      current = existing->id;
    } else {
      auto& made =
          alloc(Inode::Kind::kDirectory, current, std::string(component));
      inode_at(current).entries.emplace(std::string(component), made.id);
      current = made.id;
    }
    index = next;
  }
  return current;
}

void FileServer::put_file(std::string_view path, std::string_view content) {
  const auto slash = path.rfind('/');
  const std::string_view dir_path =
      slash == std::string_view::npos ? std::string_view{} :
                                        path.substr(0, slash);
  const std::string_view leaf =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  V_CHECK(!leaf.empty());
  const InodeId dir_id = mkdirs(dir_path);
  auto& dir = inode_at(dir_id);
  Inode* file = child(dir, leaf);
  if (file == nullptr) {
    file = &alloc(Inode::Kind::kFile, dir_id, std::string(leaf));
    inode_at(dir_id).entries.emplace(std::string(leaf), file->id);
  }
  V_CHECK(file->kind == Inode::Kind::kFile);
  file->data.resize(content.size());
  if (!content.empty()) {
    std::memcpy(file->data.data(), content.data(), content.size());
  }
}

void FileServer::put_link(std::string_view path, naming::ContextPair target) {
  const auto slash = path.rfind('/');
  const std::string_view dir_path =
      slash == std::string_view::npos ? std::string_view{} :
                                        path.substr(0, slash);
  const std::string_view leaf =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  V_CHECK(!leaf.empty());
  const InodeId dir_id = mkdirs(dir_path);
  V_CHECK(!inode_at(dir_id).entries.contains(leaf));
  auto& node = alloc(Inode::Kind::kRemoteLink, dir_id, std::string(leaf));
  node.link_target = target;
  inode_at(dir_id).entries.emplace(std::string(leaf), node.id);
}

void FileServer::map_well_known(naming::ContextId well_known,
                                std::string_view path) {
  V_CHECK(naming::is_well_known(well_known));
  well_known_[well_known] = mkdirs(path);
}

naming::ContextId FileServer::context_of(std::string_view path) const {
  InodeId current = root_;
  std::size_t index = 0;
  for (;;) {
    std::size_t next = 0;
    const auto component = naming::next_component(path, index, next);
    if (component.empty()) break;
    const auto* dir = find_inode(current);
    V_CHECK(dir != nullptr && dir->kind == Inode::Kind::kDirectory);
    auto it = dir->entries.find(component);
    V_CHECK(it != dir->entries.end());
    current = it->second;
    index = next;
  }
  return current;
}

Result<std::string> FileServer::read_file(std::string_view path) const {
  const auto slash = path.rfind('/');
  const std::string_view dir_path =
      slash == std::string_view::npos ? std::string_view{} :
                                        path.substr(0, slash);
  const std::string_view leaf =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const auto* dir = find_inode(context_of(dir_path));
  if (dir == nullptr) return ReplyCode::kNotFound;
  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) return ReplyCode::kNotFound;
  const auto* file = find_inode(it->second);
  if (file == nullptr || file->kind != Inode::Kind::kFile) {
    return ReplyCode::kNotFound;
  }
  return std::string(reinterpret_cast<const char*>(file->data.data()),
                     file->data.size());
}

std::string FileServer::path_of(InodeId id) const {
  std::vector<std::string_view> parts;
  const Inode* node = find_inode(id);
  while (node != nullptr && node->parent != 0) {
    parts.push_back(node->name_in_parent);
    node = find_inode(node->parent);
  }
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    path.push_back('/');
    path.append(*it);
  }
  return path.empty() ? "/" : path;
}

bool FileServer::is_ancestor(InodeId maybe_ancestor, InodeId node_id) const {
  const Inode* node = find_inode(node_id);
  while (node != nullptr) {
    if (node->id == maybe_ancestor) return true;
    if (node->parent == 0) return false;
    node = find_inode(node->parent);
  }
  return false;
}

// ---------------------------------------------------------------------------
// CsnhServer hooks
// ---------------------------------------------------------------------------

sim::Co<void> FileServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kStorageServer, self.pid(),
                 ipc::Scope::kBoth);
  }
  if (group_ != 0) self.join_group(group_);
  co_return;
}

naming::ContextId FileServer::translate_context(naming::ContextId ctx) {
  if (ctx == naming::kDefaultContext) return root_;
  if (naming::is_well_known(ctx)) {
    auto it = well_known_.find(ctx);
    return it != well_known_.end() ? it->second : ctx;
  }
  return ctx;
}

bool FileServer::context_valid(naming::ContextId ctx) {
  const auto* node = find_inode(static_cast<InodeId>(ctx));
  return node != nullptr && node->kind == Inode::Kind::kDirectory;
}

bool FileServer::names_context(naming::ContextId ctx,
                               std::string_view leaf) const {
  const auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr || leaf.empty()) return true;  // the context itself
  const auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) return false;
  const auto* entry = find_inode(it->second);
  return entry != nullptr && entry->kind != Inode::Kind::kFile;
}

sim::Co<naming::CsnhServer::LookupResult> FileServer::lookup(
    ipc::Process& /*self*/, naming::ContextId ctx,
    std::string_view component) {
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr || dir->kind != Inode::Kind::kDirectory) {
    co_return LookupResult::missing();
  }
  if (component == ".") co_return LookupResult::local(ctx);
  if (component == "..") {
    co_return LookupResult::local(dir->parent != 0 ? dir->parent : dir->id);
  }
  Inode* entry = child(*dir, component);
  if (entry == nullptr) co_return LookupResult::missing();
  switch (entry->kind) {
    case Inode::Kind::kDirectory:
      co_return LookupResult::local(entry->id);
    case Inode::Kind::kRemoteLink:
      co_return LookupResult::remote_ctx(entry->link_target);
    case Inode::Kind::kFile:
      co_return LookupResult::object(entry->id);
  }
  co_return LookupResult::missing();
}

naming::ObjectDescriptor FileServer::describe_inode(const Inode& node) const {
  ObjectDescriptor desc;
  switch (node.kind) {
    case Inode::Kind::kFile:
      desc.type = DescriptorType::kFile;
      break;
    case Inode::Kind::kDirectory:
      desc.type = DescriptorType::kContext;
      desc.server_pid = pid().raw;
      desc.context_id = node.id;
      break;
    case Inode::Kind::kRemoteLink:
      desc.type = DescriptorType::kContext;
      desc.server_pid = node.link_target.server.raw;
      desc.context_id = node.link_target.context;
      break;
  }
  desc.flags = node.flags;
  desc.size = static_cast<std::uint32_t>(node.data.size());
  desc.object_id = node.id;
  desc.mtime = node.mtime;
  desc.owner = node.owner;
  desc.name = node.name_in_parent;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> FileServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty()) co_return describe_inode(*dir);
  Inode* entry = child(*dir, leaf);
  if (entry == nullptr) co_return ReplyCode::kNotFound;
  co_return describe_inode(*entry);
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::modify(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf,
                                      const naming::ObjectDescriptor& desc) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  Inode* entry = leaf.empty() ? dir : child(*dir, leaf);
  if (entry == nullptr) co_return ReplyCode::kNotFound;
  if ((entry->flags & naming::kProtected) != 0) {
    co_return ReplyCode::kNoPermission;
  }
  // Only the modifiable fields take effect; the rest "make no sense to
  // change in this way" and are ignored (paper section 5.5).
  entry->flags = desc.flags;
  if (!desc.owner.empty()) entry->owner = desc.owner;
  entry->mtime = sim_seconds(self);
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::remove(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  Inode* entry = child(*dir, leaf);
  if (entry == nullptr) co_return ReplyCode::kNotFound;
  if (entry->kind == Inode::Kind::kDirectory && !entry->entries.empty()) {
    co_return ReplyCode::kBadState;  // non-empty directory
  }
  // Name and object die together: this is the consistency argument for
  // distributed interpretation (section 2.2) — no name server to notify.
  const InodeId id = entry->id;
  dir->entries.erase(std::string(leaf));
  inodes_[id].reset();
  --live_inodes_;
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::rename(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf,
                                      std::string_view new_leaf) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty() || new_leaf.empty()) co_return ReplyCode::kBadArgs;
  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) co_return ReplyCode::kNotFound;
  if (dir->entries.contains(new_leaf)) co_return ReplyCode::kNameExists;
  const InodeId id = it->second;
  dir->entries.erase(it);
  dir->entries.emplace(std::string(new_leaf), id);
  if (auto* node = find_inode(id)) {
    node->name_in_parent = std::string(new_leaf);
    node->mtime = sim_seconds(self);
    if (node->kind == Inode::Kind::kDirectory) {
      // Renaming a directory relocates every context beneath it: a client
      // holding a cached binding for the OLD path would otherwise keep
      // hitting these contexts under a name that no longer reaches them.
      // Still under the (ctx, leaf) mutation gate of this rename.
      bump_subtree_generations(self, *node);
    }
  }
  co_return ReplyCode::kOk;
}

void FileServer::bump_subtree_generations(ipc::Process& self,
                                          const Inode& dir) {
  bump_generation(self, static_cast<naming::ContextId>(dir.id));
  for (const auto& [name, child_id] : dir.entries) {
    const auto* node = find_inode(child_id);
    if (node != nullptr && node->kind == Inode::Kind::kDirectory) {
      bump_subtree_generations(self, *node);
    }
  }
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::create_object(ipc::Process& self,
                                             naming::ContextId ctx,
                                             std::string_view leaf,
                                             std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  if (dir->entries.contains(leaf)) co_return ReplyCode::kNameExists;
  auto& node = alloc(Inode::Kind::kFile, dir->id, std::string(leaf));
  node.mtime = sim_seconds(self);
  find_inode(static_cast<InodeId>(ctx))
      ->entries.emplace(std::string(leaf), node.id);
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::make_context(ipc::Process& self,
                                            naming::ContextId ctx,
                                            std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  if (dir->entries.contains(leaf)) co_return ReplyCode::kNameExists;
  auto& node = alloc(Inode::Kind::kDirectory, dir->id, std::string(leaf));
  node.mtime = sim_seconds(self);
  find_inode(static_cast<InodeId>(ctx))
      ->entries.emplace(std::string(leaf), node.id);
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> FileServer::link_context(ipc::Process& self,
                                            naming::ContextId ctx,
                                            std::string_view leaf,
                                            naming::ContextPair target) {
  note_name_write(self, ctx, leaf);
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  if (leaf.empty() || !target.valid()) co_return ReplyCode::kBadArgs;
  if (dir->entries.contains(leaf)) co_return ReplyCode::kNameExists;
  auto& node = alloc(Inode::Kind::kRemoteLink, dir->id, std::string(leaf));
  node.link_target = target;
  node.mtime = sim_seconds(self);
  find_inode(static_cast<InodeId>(ctx))
      ->entries.emplace(std::string(leaf), node.id);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>> FileServer::open_object(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
    std::uint16_t mode) {
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr) co_return ReplyCode::kInvalidContext;
  Inode* entry = child(*dir, leaf);
  if (entry == nullptr) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
    entry = child(*find_inode(static_cast<InodeId>(ctx)), leaf);
    V_CHECK(entry != nullptr);
  }
  if (entry->kind != Inode::Kind::kFile) co_return ReplyCode::kBadState;

  std::uint16_t flags = 0;
  if ((mode & naming::wire::kOpenRead) != 0) {
    if ((entry->flags & naming::kReadable) == 0) {
      co_return ReplyCode::kNoPermission;
    }
    flags |= io::kInstanceReadable;
  }
  if ((mode & (naming::wire::kOpenWrite | naming::wire::kOpenAppend)) != 0) {
    if ((entry->flags & naming::kWriteable) == 0) {
      co_return ReplyCode::kNoPermission;
    }
    flags |= io::kInstanceWriteable;
    if ((mode & naming::wire::kOpenAppend) != 0) {
      flags |= io::kInstanceAppendOnly;
    }
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<FileInstance>(*this, entry->id, flags, disk_));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
FileServer::list_context(ipc::Process& /*self*/, naming::ContextId ctx) {
  auto* dir = find_inode(static_cast<InodeId>(ctx));
  if (dir == nullptr || dir->kind != Inode::Kind::kDirectory) {
    co_return ReplyCode::kInvalidContext;
  }
  std::vector<ObjectDescriptor> records;
  records.reserve(dir->entries.size());
  for (const auto& [name, id] : dir->entries) {
    const auto* node = find_inode(id);
    if (node != nullptr) records.push_back(describe_inode(*node));
  }
  co_return records;
}

Result<std::string> FileServer::context_to_name(naming::ContextId ctx) {
  const auto* node = find_inode(static_cast<InodeId>(ctx));
  if (node == nullptr || node->kind != Inode::Kind::kDirectory) {
    return ReplyCode::kNoInverse;
  }
  // Server-local absolute path.  The paper (section 6) is explicit that
  // this inverse is imperfect: it cannot know which prefix or which chain
  // of forwarding servers the original name went through.
  return path_of(node->id);
}

Result<std::string> FileServer::instance_to_name(io::InstanceId instance) {
  auto object = instances().find(instance);
  if (object == nullptr) return ReplyCode::kNoInverse;
  auto* file = dynamic_cast<FileInstance*>(object.get());
  if (file == nullptr) return ReplyCode::kNoInverse;
  const auto* node = find_inode(file->inode());
  if (node == nullptr) return ReplyCode::kNoInverse;
  return path_of(node->id);
}

}  // namespace v::servers
