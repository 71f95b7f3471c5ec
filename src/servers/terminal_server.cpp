#include "servers/terminal_server.hpp"

#include <cstring>
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

/// An open terminal: reads return the transcript; writes append to it
/// (append-only stream semantics).
class TerminalInstance : public io::InstanceObject {
 public:
  TerminalInstance(TerminalServer& server, std::string name) noexcept
      : server_(server), name_(std::move(name)) {}

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = io::kInstanceReadable | io::kInstanceWriteable |
                 io::kInstanceAppendOnly;
    auto it = server_.terminals_.find(name_);
    info.size_bytes =
        it != server_.terminals_.end()
            ? static_cast<std::uint32_t>(it->second.transcript.size())
            : 0;
    return info;
  }

  sim::Co<Result<std::size_t>> read_block(ipc::Process& /*self*/,
                                          std::uint32_t block,
                                          std::span<std::byte> out) override {
    auto it = server_.terminals_.find(name_);
    if (it == server_.terminals_.end()) co_return ReplyCode::kBadState;
    const auto& data = it->second.transcript;
    const std::size_t offset = static_cast<std::size_t>(block) * 512;
    if (offset >= data.size()) co_return ReplyCode::kEndOfFile;
    const std::size_t n =
        std::min({out.size(), std::size_t{512}, data.size() - offset});
    std::memcpy(out.data(), data.data() + offset, n);
    co_return n;
  }

  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t /*block*/,
      std::span<const std::byte> data) override {
    auto it = server_.terminals_.find(name_);
    if (it == server_.terminals_.end()) co_return ReplyCode::kBadState;
    // Streams append regardless of the block number.
    it->second.transcript.insert(it->second.transcript.end(), data.begin(),
                                 data.end());
    server_.metric_inc(self, server_.m_chars_written_, data.size());
    co_return data.size();
  }

 private:
  TerminalServer& server_;
  std::string name_;
};

TerminalServer::TerminalServer(bool register_service,
                               naming::TeamConfig team)
    : CsnhServer(team), register_service_(register_service) {}

Result<std::string> TerminalServer::transcript(std::string_view name) const {
  auto it = terminals_.find(name);
  if (it == terminals_.end()) return ReplyCode::kNotFound;
  const auto& data = it->second.transcript;
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

sim::Co<void> TerminalServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kTerminalServer, self.pid(),
                 ipc::Scope::kLocal);
  }
  co_return;
}

sim::Co<naming::CsnhServer::LookupResult> TerminalServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = terminals_.find(component);
  if (it == terminals_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor TerminalServer::describe_terminal(
    const std::string& name, const Terminal& t) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kTerminal;
  desc.flags = naming::kReadable | naming::kWriteable | naming::kAppendOnly;
  desc.size = static_cast<std::uint32_t>(t.transcript.size());
  desc.object_id = t.id;
  desc.mtime = t.created;
  desc.owner = t.owner;
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> TerminalServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(terminals_.size());
    co_return desc;
  }
  auto it = terminals_.find(leaf);
  if (it == terminals_.end()) co_return ReplyCode::kNotFound;
  co_return describe_terminal(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> TerminalServer::create_object(ipc::Process& self,
                                                 naming::ContextId ctx,
                                                 std::string_view leaf,
                                                 std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  if (terminals_.contains(leaf)) co_return ReplyCode::kNameExists;
  Terminal t;
  t.id = next_id_++;
  t.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  terminals_.emplace(std::string(leaf), std::move(t));
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> TerminalServer::remove(ipc::Process& self,
                                          naming::ContextId ctx,
                                          std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = terminals_.find(leaf);
  if (it == terminals_.end()) co_return ReplyCode::kNotFound;
  terminals_.erase(it);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>>
TerminalServer::open_object(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf, std::uint16_t mode) {
  if (!terminals_.contains(leaf)) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<TerminalInstance>(*this, std::string(leaf)));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
TerminalServer::list_context(ipc::Process& /*self*/,
                             naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(terminals_.size());
  for (const auto& [name, t] : terminals_) {
    records.push_back(describe_terminal(name, t));
  }
  co_return records;
}

Result<std::string> TerminalServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("terminals");
}

}  // namespace v::servers
