// A V storage server (paper sections 5.8, 6).
//
// Implements a hierarchical file system behind the name-handling protocol:
// every directory is a context (its context id is the directory's i-node
// number), so "the file server software maps context identifiers onto
// directories that act as starting points for interpreting relative
// pathnames".  Directory entries may also be cross-server links — pointers
// to a context on another server (the curved arrow in Figure 4) — which the
// mapping walk follows by forwarding the partially-interpreted request.
//
// Storage is in-memory (the simulation's "disk") with an optional disk
// timing model: page reads cost disk_page (15 ms in the SUN preset) with
// one-page read-ahead, reproducing the paper's sequential-read behaviour
// (~17 ms per 512 B page, section 3.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

/// Disk timing model for file content access.
enum class DiskModel {
  kMemory,  ///< file data in memory buffers (program-load scenario)
  kDisk,    ///< charge disk_page per page miss, with one-page read-ahead
};

class FileServer : public naming::CsnhServer {
 public:
  /// `server_name` labels inverse mappings; `disk` selects content timing.
  explicit FileServer(std::string server_name,
                      DiskModel disk = DiskModel::kMemory,
                      bool register_service = true,
                      naming::TeamConfig team = {});

  // --- direct (pre-run) population helpers for tests/examples --------------
  // These manipulate the store without protocol cost; simulation-time
  // clients use the protocol instead.

  /// Create all directories along `path` ("usr/mann"); returns the final
  /// directory's context id.
  naming::ContextId mkdirs(std::string_view path);
  /// Create/overwrite a file with `content`; creates parent directories.
  void put_file(std::string_view path, std::string_view content);
  /// Bind a well-known context id (kHomeContext...) to `path`.
  void map_well_known(naming::ContextId well_known, std::string_view path);
  /// Create a cross-server link entry at `path` pointing to `target`
  /// (the curved arrow of Figure 4); creates parent directories.
  void put_link(std::string_view path, naming::ContextPair target);
  /// Context id of an existing directory path ("" = root).
  [[nodiscard]] naming::ContextId context_of(std::string_view path) const;
  /// Raw content of a file (test inspection).
  [[nodiscard]] Result<std::string> read_file(std::string_view path) const;
  /// Number of i-nodes in use.
  [[nodiscard]] std::size_t inode_count() const noexcept {
    return live_inodes_;
  }

  [[nodiscard]] const std::string& server_name() const noexcept {
    return name_;
  }

  /// Join a process group at start-up, making this server one member of a
  /// group-implemented context (paper section 7).  Members of one group
  /// should hold replica content; opens stick to whichever member answered.
  void set_group(ipc::GroupId group) noexcept { group_ = group; }

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  naming::ContextId translate_context(naming::ContextId ctx) override;
  bool context_valid(naming::ContextId ctx) override;
  /// From the i-node kind: a directory or a cross-server link names a
  /// context, a plain file (or a free name) does not.
  [[nodiscard]] bool names_context(naming::ContextId ctx,
                                   std::string_view leaf) const override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<ReplyCode> modify(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf,
                            const naming::ObjectDescriptor& desc) override;
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override;
  sim::Co<ReplyCode> rename(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf,
                            std::string_view new_leaf) override;
  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t mode) override;
  sim::Co<ReplyCode> make_context(ipc::Process& self, naming::ContextId ctx,
                                  std::string_view leaf) override;
  sim::Co<ReplyCode> link_context(ipc::Process& self, naming::ContextId ctx,
                                  std::string_view leaf,
                                  naming::ContextPair target) override;
  sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
      std::uint16_t mode) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;
  Result<std::string> instance_to_name(io::InstanceId instance) override;

 private:
  friend class FileInstance;

  using InodeId = std::uint32_t;

  struct Inode {
    enum class Kind { kFile, kDirectory, kRemoteLink };
    InodeId id = 0;
    Kind kind = Kind::kFile;
    std::vector<std::byte> data;  // file content
    std::map<std::string, InodeId, std::less<>> entries;  // directories
    naming::ContextPair link_target;                      // remote links
    InodeId parent = 0;
    std::string name_in_parent;
    std::uint16_t flags = naming::kReadable | naming::kWriteable;
    std::string owner = "system";
    std::uint32_t mtime = 0;
  };

  Inode& alloc(Inode::Kind kind, InodeId parent, std::string name);
  /// Advance the generation of `dir`'s context and every directory context
  /// beneath it (a directory rename relocates the whole subtree).  Caller
  /// holds the mutation gate of the rename that justifies the bumps.
  void bump_subtree_generations(ipc::Process& self, const Inode& dir);
  /// The i-node `id`, or nullptr.  Any 32-bit value may be asked (context
  /// ids arrive from clients), so out-of-range ids simply miss.
  [[nodiscard]] Inode* find_inode(InodeId id) noexcept {
    return id < inodes_.size() ? inodes_[id].get() : nullptr;
  }
  [[nodiscard]] const Inode* find_inode(InodeId id) const noexcept {
    return id < inodes_.size() ? inodes_[id].get() : nullptr;
  }
  /// The live i-node `id` (a missing one is a broken invariant).
  [[nodiscard]] Inode& inode_at(InodeId id);
  [[nodiscard]] Inode* child(Inode& dir, std::string_view name);
  naming::ObjectDescriptor describe_inode(const Inode& inode) const;
  [[nodiscard]] std::string path_of(InodeId id) const;
  [[nodiscard]] bool is_ancestor(InodeId maybe_ancestor, InodeId node) const;

  std::string name_;
  DiskModel disk_;
  bool register_service_;
  ipc::GroupId group_ = 0;
  /// I-node table indexed by id: ids are allocated densely from 1 and never
  /// reused, so a lookup is a bounds check and a load.  A removed i-node
  /// leaves an empty slot; each Inode keeps its address as the table grows.
  std::vector<std::unique_ptr<Inode>> inodes_;
  std::size_t live_inodes_ = 0;
  FlatMap<naming::ContextId, InodeId> well_known_;
  InodeId next_inode_ = 1;
  InodeId root_ = 0;
  CounterHandle m_bytes_read_{"bytes_read"};
  CounterHandle m_bytes_written_{"bytes_written"};
};

}  // namespace v::servers
