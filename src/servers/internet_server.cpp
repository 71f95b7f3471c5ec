#include "servers/internet_server.hpp"

#include <cctype>
#include <cstring>
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

/// An open connection: writes go to the simulated peer (which echoes them
/// after the RTT); reads consume the inbound stream.
class ConnectionInstance : public io::InstanceObject {
 public:
  ConnectionInstance(InternetServer& server, std::string name) noexcept
      : server_(server), name_(std::move(name)) {}

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = io::kInstanceReadable | io::kInstanceWriteable;
    auto it = server_.connections_.find(name_);
    info.size_bytes =
        it != server_.connections_.end()
            ? static_cast<std::uint32_t>(it->second.inbound.size())
            : 0;
    return info;
  }

  sim::Co<Result<std::size_t>> read_block(ipc::Process& /*self*/,
                                          std::uint32_t block,
                                          std::span<std::byte> out) override {
    auto it = server_.connections_.find(name_);
    if (it == server_.connections_.end()) co_return ReplyCode::kBadState;
    auto& conn = it->second;
    if (conn.state != InternetServer::ConnState::kOpen) {
      co_return ReplyCode::kBadState;
    }
    const auto& data = conn.inbound;
    const std::size_t offset = static_cast<std::size_t>(block) * 512;
    if (offset >= data.size()) co_return ReplyCode::kEndOfFile;
    const std::size_t n =
        std::min({out.size(), std::size_t{512}, data.size() - offset});
    std::memcpy(out.data(), data.data() + offset, n);
    co_return n;
  }

  V_BORROWS_SPAN
  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t /*block*/,
      std::span<const std::byte> data) override {
    auto it = server_.connections_.find(name_);
    if (it == server_.connections_.end()) co_return ReplyCode::kBadState;
    if (it->second.state != InternetServer::ConnState::kOpen) {
      co_return ReplyCode::kBadState;
    }
    co_await self.delay(server_.rtt_);  // peer round trip
    it = server_.connections_.find(name_);  // revalidate after waiting
    if (it == server_.connections_.end()) co_return ReplyCode::kBadState;
    auto& conn = it->second;
    conn.bytes_sent += data.size();
    conn.inbound.insert(conn.inbound.end(), data.begin(), data.end());
    co_return data.size();
  }

 private:
  InternetServer& server_;
  std::string name_;
};

InternetServer::InternetServer(sim::SimDuration rtt, bool register_service,
                               naming::TeamConfig team)
    : CsnhServer(team), rtt_(rtt), register_service_(register_service) {}

bool InternetServer::valid_endpoint(std::string_view name) {
  const auto colon = name.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= name.size()) {
    return false;
  }
  for (std::size_t i = colon + 1; i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return true;
}

sim::Co<void> InternetServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kInternetServer, self.pid(),
                 ipc::Scope::kBoth);
  }
  co_return;
}

sim::Co<naming::CsnhServer::LookupResult> InternetServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = connections_.find(component);
  if (it == connections_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor InternetServer::describe_conn(
    const std::string& name, const Connection& c) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kConnection;
  desc.flags = naming::kReadable | naming::kWriteable;
  desc.size = static_cast<std::uint32_t>(c.inbound.size());
  desc.object_id = c.id;
  desc.context_id = static_cast<std::uint32_t>(c.state);
  desc.mtime = c.opened;
  desc.owner = "tcp";
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> InternetServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(connections_.size());
    co_return desc;
  }
  auto it = connections_.find(leaf);
  if (it == connections_.end()) co_return ReplyCode::kNotFound;
  co_return describe_conn(it->first, it->second);
}

V_BORROWS_SPAN
V_GATED_MUTATION
sim::Co<ReplyCode> InternetServer::create_object(ipc::Process& self,
                                                 naming::ContextId ctx,
                                                 std::string_view leaf,
                                                 std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  if (!valid_endpoint(leaf)) co_return ReplyCode::kBadArgs;
  if (connections_.contains(leaf)) co_return ReplyCode::kNameExists;
  // Connection establishment costs one peer round trip.
  co_await self.delay(rtt_);
  if (connections_.contains(leaf)) co_return ReplyCode::kNameExists;
  Connection conn;
  conn.id = next_id_++;
  conn.opened = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  connections_.emplace(std::string(leaf), std::move(conn));
  metric_inc(self, m_connections_opened_);
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> InternetServer::remove(ipc::Process& self,
                                          naming::ContextId ctx,
                                          std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = connections_.find(leaf);
  if (it == connections_.end()) co_return ReplyCode::kNotFound;
  connections_.erase(it);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>>
InternetServer::open_object(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf, std::uint16_t mode) {
  if (!connections_.contains(leaf)) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<ConnectionInstance>(*this, std::string(leaf)));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
InternetServer::list_context(ipc::Process& /*self*/,
                             naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(connections_.size());
  for (const auto& [name, conn] : connections_) {
    records.push_back(describe_conn(name, conn));
  }
  co_return records;
}

Result<std::string> InternetServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("tcp");
}

}  // namespace v::servers
