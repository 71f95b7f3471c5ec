#include "servers/prefix_server.hpp"

#include <utility>

#include "naming/parse.hpp"
#include "common/annotate.hpp"

namespace v::servers {

using naming::ContextPair;
using naming::DescriptorType;
using naming::ObjectDescriptor;

ContextPrefixServer::ContextPrefixServer(std::string user,
                                         bool register_service,
                                         naming::TeamConfig team)
    : CsnhServer(team),
      user_(std::move(user)),
      register_service_(register_service) {}

void ContextPrefixServer::define(std::string prefix, Entry entry) {
  table_[std::move(prefix)] = entry;
}

std::size_t ContextPrefixServer::table_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [name, entry] : table_) {
    bytes += name.size() + sizeof(entry) + 2 * sizeof(void*);
  }
  return bytes;
}

sim::Co<void> ContextPrefixServer::on_start(ipc::Process& self) {
  if (register_service_) {
    // Per-user: visible only on this workstation.
    self.set_pid(ipc::ServiceId::kContextPrefixServer, self.pid(),
                 ipc::Scope::kLocal);
  }
  co_return;
}

std::string_view ContextPrefixServer::parse_component(std::string_view name,
                                                      std::size_t index,
                                                      std::size_t& next) {
  if (index < name.size() && name[index] == naming::kPrefixOpen) {
    std::size_t rest = 0;
    if (auto prefix = naming::parse_prefix(name.substr(index), rest)) {
      next = index + rest;
      return *prefix;
    }
  }
  return naming::next_component(name, index, next);
}

sim::SimDuration ContextPrefixServer::parse_cost(ipc::Process& self,
                                                 std::string_view /*name*/) {
  return self.params().prefix_processing;
}

sim::Co<naming::CsnhServer::LookupResult> ContextPrefixServer::lookup(
    ipc::Process& self, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = table_.find(component);
  metric_inc(self, it != table_.end() ? m_prefix_hits_ : m_prefix_misses_);
  if (it == table_.end()) co_return LookupResult::missing();
  const Entry& entry = it->second;
  if (entry.group != 0) {
    // Section 7: the context is implemented by a group of servers.
    co_return LookupResult::group_ctx(entry.group, entry.logical_context);
  }
  if (!entry.logical) {
    // V-fault rebinding: an ordinary entry pins a concrete pid.  When that
    // server has died, forwarding there would only earn the client a
    // kNoReply — multicast a recovery probe to the rebind group instead,
    // and let the surviving/restarted member that now implements the
    // context answer.  (Logical entries need none of this: GetPid at each
    // use already rebinds them.)
    if (rebind_group_ != 0 &&
        !self.domain().process_alive(entry.target.server)) {
      metric_inc(self, m_rebind_probes_);
      co_return LookupResult::group_probe(rebind_group_,
                                          entry.target.context);
    }
    co_return LookupResult::remote_ctx(entry.target);
  }
  // Logical entry: bind service -> server at time of use.
  const auto server = co_await self.get_pid(entry.service, ipc::Scope::kBoth);
  if (!server.valid()) co_return LookupResult::missing();
  co_return LookupResult::remote_ctx(
      ContextPair{server, entry.logical_context});
}

V_GATED_MUTATION
sim::Co<ReplyCode> ContextPrefixServer::add_context_name(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
    naming::ContextPair target, ipc::ServiceId logical_service,
    ipc::GroupId group) {
  note_name_write(self, ctx, leaf);
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  Entry entry;
  if (group != 0) {
    entry.group = group;
    entry.logical_context = target.context;
  } else if (logical_service != ipc::ServiceId::kNone) {
    entry.logical = true;
    entry.service = logical_service;
    entry.logical_context = target.context;
  } else {
    if (!target.valid()) co_return ReplyCode::kBadArgs;
    entry.target = target;
  }
  table_[std::string(leaf)] = entry;  // redefinition allowed
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> ContextPrefixServer::delete_context_name(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = table_.find(leaf);
  if (it == table_.end()) co_return ReplyCode::kNotFound;
  table_.erase(it);
  co_return ReplyCode::kOk;
}

naming::ObjectDescriptor ContextPrefixServer::describe_entry(
    const std::string& name, const Entry& entry) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kPrefix;
  desc.name = name;
  desc.owner = user_;
  if (entry.group != 0) {
    desc.flags = naming::kGrouped;
    desc.object_id = entry.group;
    desc.context_id = entry.logical_context;
  } else if (entry.logical) {
    desc.flags = naming::kLogical;
    desc.object_id = static_cast<std::uint32_t>(entry.service);
    desc.context_id = entry.logical_context;
  } else {
    desc.server_pid = entry.target.server.raw;
    desc.context_id = entry.target.context;
  }
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> ContextPrefixServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.owner = user_;
    desc.size = static_cast<std::uint32_t>(table_.size());
    co_return desc;
  }
  auto it = table_.find(leaf);
  if (it == table_.end()) co_return ReplyCode::kNotFound;
  co_return describe_entry(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> ContextPrefixServer::modify(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
    const naming::ObjectDescriptor& desc) {
  note_name_write(self, ctx, leaf);
  // Context-directory writes can retarget ordinary prefixes; all other
  // fields are fabricated and ignored.
  auto it = table_.find(leaf.empty() ? std::string_view(desc.name) : leaf);
  if (it == table_.end()) co_return ReplyCode::kNotFound;
  if (!it->second.logical && desc.server_pid != 0) {
    it->second.target =
        ContextPair{ipc::ProcessId{desc.server_pid}, desc.context_id};
  }
  co_return ReplyCode::kOk;
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
ContextPrefixServer::list_context(ipc::Process& /*self*/,
                                  naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(table_.size());
  for (const auto& [name, entry] : table_) {
    records.push_back(describe_entry(name, entry));
  }
  co_return records;
}

Result<std::string> ContextPrefixServer::context_to_name(
    naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("[]");  // the (empty) prefix naming this table itself
}

}  // namespace v::servers
