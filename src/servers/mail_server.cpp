#include "servers/mail_server.hpp"

#include <cstring>
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

/// An open mailbox: reading returns the messages joined by '\n'; each write
/// delivers one message (block semantics are ignored — mail is a stream of
/// deliveries, another legitimate interpretation under the I/O protocol).
class MailboxInstance : public io::InstanceObject {
 public:
  MailboxInstance(MailServer& server, std::string name)
      : server_(server), name_(std::move(name)) {}

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = io::kInstanceReadable | io::kInstanceWriteable |
                 io::kInstanceAppendOnly;
    auto it = server_.mailboxes_.find(name_);
    info.size_bytes =
        it != server_.mailboxes_.end()
            ? static_cast<std::uint32_t>(it->second.total_bytes())
            : 0;
    return info;
  }

  sim::Co<Result<std::size_t>> read_block(ipc::Process& /*self*/,
                                          std::uint32_t block,
                                          std::span<std::byte> out) override {
    auto it = server_.mailboxes_.find(name_);
    if (it == server_.mailboxes_.end()) co_return ReplyCode::kBadState;
    std::string joined;
    joined.reserve(it->second.total_bytes());
    for (const auto& m : it->second.messages) {
      joined += m;
      joined += '\n';
    }
    const std::size_t offset = static_cast<std::size_t>(block) * 512;
    if (offset >= joined.size()) co_return ReplyCode::kEndOfFile;
    const std::size_t n =
        std::min({out.size(), std::size_t{512}, joined.size() - offset});
    std::memcpy(out.data(), joined.data() + offset, n);
    co_return n;
  }

  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t /*block*/,
      std::span<const std::byte> data) override {
    auto it = server_.mailboxes_.find(name_);
    if (it == server_.mailboxes_.end()) co_return ReplyCode::kBadState;
    it->second.messages.emplace_back(
        reinterpret_cast<const char*>(data.data()), data.size());
    server_.metric_inc(self, server_.m_deliveries_);
    co_return data.size();
  }

 private:
  MailServer& server_;
  std::string name_;
};

MailServer::MailServer(bool register_service, naming::TeamConfig team)
    : CsnhServer(team), register_service_(register_service) {}

Result<std::size_t> MailServer::message_count(std::string_view mailbox) const {
  auto it = mailboxes_.find(mailbox);
  if (it == mailboxes_.end()) return ReplyCode::kNotFound;
  return it->second.messages.size();
}

bool MailServer::valid_mailbox_name(std::string_view name) {
  const auto at = name.find('@');
  return at != std::string_view::npos && at > 0 && at + 1 < name.size() &&
         name.find('@', at + 1) == std::string_view::npos;
}

sim::Co<void> MailServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kMailServer, self.pid(), ipc::Scope::kBoth);
  }
  co_return;
}

std::string_view MailServer::parse_component(std::string_view name,
                                             std::size_t index,
                                             std::size_t& next) {
  next = name.size();
  return name.substr(index);
}

sim::Co<naming::CsnhServer::LookupResult> MailServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = mailboxes_.find(component);
  if (it == mailboxes_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor MailServer::describe_mailbox(
    const std::string& name, const Mailbox& box) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kMailbox;
  desc.flags = naming::kReadable | naming::kWriteable | naming::kAppendOnly;
  desc.size = static_cast<std::uint32_t>(box.total_bytes());
  desc.object_id = box.id;
  desc.context_id = static_cast<std::uint32_t>(box.messages.size());
  desc.mtime = box.created;
  desc.owner = name.substr(0, name.find('@'));
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> MailServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(mailboxes_.size());
    co_return desc;
  }
  auto it = mailboxes_.find(leaf);
  if (it == mailboxes_.end()) co_return ReplyCode::kNotFound;
  co_return describe_mailbox(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> MailServer::create_object(ipc::Process& self,
                                             naming::ContextId ctx,
                                             std::string_view leaf,
                                             std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  if (!valid_mailbox_name(leaf)) co_return ReplyCode::kBadArgs;
  if (mailboxes_.contains(leaf)) co_return ReplyCode::kNameExists;
  Mailbox box;
  box.id = next_id_++;
  box.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  mailboxes_.emplace(std::string(leaf), std::move(box));
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> MailServer::remove(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = mailboxes_.find(leaf);
  if (it == mailboxes_.end()) co_return ReplyCode::kNotFound;
  mailboxes_.erase(it);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>> MailServer::open_object(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
    std::uint16_t mode) {
  if (!mailboxes_.contains(leaf)) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<MailboxInstance>(*this, std::string(leaf)));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
MailServer::list_context(ipc::Process& /*self*/, naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(mailboxes_.size());
  for (const auto& [name, box] : mailboxes_) {
    records.push_back(describe_mailbox(name, box));
  }
  co_return records;
}

Result<std::string> MailServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("mail");
}

}  // namespace v::servers
