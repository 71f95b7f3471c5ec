#include "servers/exception_server.hpp"

#include <cstring>

#include "msg/request_codes.hpp"
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

ExceptionServer::ExceptionServer(bool register_service,
                                 naming::TeamConfig team)
    : CsnhServer(team), register_service_(register_service) {}

V_BORROWS_SPAN
sim::Co<Result<std::uint16_t>> ExceptionServer::raise(
    ipc::Process self, ipc::ProcessId server, FaultCode code,
    std::string_view detail) {
  co_await self.compute(self.params().send_build);
  msg::Message request;
  request.set_code(kRaiseException);
  request.set_u16(kOffExcCode, static_cast<std::uint16_t>(code));
  request.set_u16(kOffExcDetailLen,
                  static_cast<std::uint16_t>(detail.size()));
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(detail.data(), detail.size()));
  const auto reply = co_await self.send(request, server, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return static_cast<std::uint16_t>(reply.u16(kOffExcReportId));
}

sim::Co<void> ExceptionServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kExceptionServer, self.pid(),
                 ipc::Scope::kLocal);
  }
  co_return;
}

V_BORROWS_SPAN
sim::Co<msg::Message> ExceptionServer::handle_custom(ipc::Process& self,
                                                     ipc::Envelope& env) {
  if (env.request.code() != kRaiseException) {
    co_return msg::make_reply(ReplyCode::kIllegalRequest);
  }
  const std::uint16_t detail_len = env.request.u16(kOffExcDetailLen);
  if (detail_len > 512) co_return msg::make_reply(ReplyCode::kBadArgs);
  std::string detail(detail_len, '\0');
  if (detail_len > 0) {
    auto fetched = co_await self.move_from(
        env, std::as_writable_bytes(std::span(detail)), 0);
    if (!fetched.ok()) co_return msg::make_reply(fetched.code());
  }
  Report report;
  report.id = next_id_++;
  report.faulting = env.sender;
  report.code = static_cast<FaultCode>(env.request.u16(kOffExcCode));
  report.detail = std::move(detail);
  report.raised = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  const std::string name = "exc." + std::to_string(report.id);
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(kOffExcReportId, report.id);
  {
    chk::AccessGuard guard(self, reports_cell_,
                           chk::AccessGuard::Mode::kWrite);
    reports_.emplace(name, std::move(report));
  }
  metric_inc(self, m_exceptions_raised_);
  co_return reply;
}

sim::Co<naming::CsnhServer::LookupResult> ExceptionServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = reports_.find(component);
  if (it == reports_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor ExceptionServer::describe_report(
    const std::string& name, const Report& r) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kDevice;  // report record tag
  desc.flags = naming::kReadable;
  desc.size = static_cast<std::uint32_t>(r.detail.size());
  desc.object_id =
      (static_cast<std::uint32_t>(r.id) << 16) |
      static_cast<std::uint32_t>(r.code);
  desc.server_pid = r.faulting.raw;  // which process faulted
  desc.mtime = r.raised;
  desc.owner = "exception";
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> ExceptionServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(reports_.size());
    co_return desc;
  }
  auto it = reports_.find(leaf);
  if (it == reports_.end()) co_return ReplyCode::kNotFound;
  co_return describe_report(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> ExceptionServer::remove(ipc::Process& self,
                                           naming::ContextId ctx,
                                           std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = reports_.find(leaf);
  if (it == reports_.end()) co_return ReplyCode::kNotFound;
  reports_.erase(it);  // dismissed
  co_return ReplyCode::kOk;
}

sim::Co<Result<std::unique_ptr<io::InstanceObject>>>
ExceptionServer::open_object(ipc::Process& /*self*/,
                             naming::ContextId /*ctx*/,
                             std::string_view leaf, std::uint16_t /*mode*/) {
  auto it = reports_.find(leaf);
  if (it == reports_.end()) co_return ReplyCode::kNotFound;
  std::vector<std::byte> text(it->second.detail.size());
  if (!text.empty()) {
    std::memcpy(text.data(), it->second.detail.data(), text.size());
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<io::BufferInstance>(std::move(text)));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
ExceptionServer::list_context(ipc::Process& /*self*/,
                              naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(reports_.size());
  for (const auto& [name, r] : reports_) {
    records.push_back(describe_report(name, r));
  }
  co_return records;
}

Result<std::string> ExceptionServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("exceptions");
}

}  // namespace v::servers
