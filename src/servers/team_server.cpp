#include "servers/team_server.hpp"

#include "msg/request_codes.hpp"
#include "naming/parse.hpp"
#include "naming/protocol.hpp"
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

TeamServer::TeamServer(naming::ContextPair default_context,
                       bool register_service, naming::TeamConfig team)
    : CsnhServer(team),
      default_context_(default_context),
      register_service_(register_service) {}

sim::Co<void> TeamServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kTeamServer, self.pid(), ipc::Scope::kLocal);
  }
  co_return;
}

V_BORROWS_SPAN
sim::Co<Result<std::uint16_t>> TeamServer::load_program(
    ipc::Process self, ipc::ProcessId team, std::string_view name) {
  co_await self.compute(self.params().send_build);
  msg::Message request;
  request.set_code(msg::RequestCode::kLoadProgram);
  request.set_u16(kOffLoadNameLength, static_cast<std::uint16_t>(name.size()));
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  const auto reply = co_await self.send(request, team, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return static_cast<std::uint16_t>(reply.u16(kOffLoadProgramId));
}

sim::Co<msg::Message> TeamServer::handle_custom(ipc::Process& self,
                                                ipc::Envelope& env) {
  if (env.request.code() == msg::RequestCode::kLoadProgram) {
    co_return co_await do_load(self, env);
  }
  co_return msg::make_reply(ReplyCode::kIllegalRequest);
}

sim::Co<msg::Message> TeamServer::do_load(ipc::Process& self,
                                          ipc::Envelope& env) {
  const std::uint16_t name_len = env.request.u16(kOffLoadNameLength);
  if (name_len == 0 || name_len > naming::kMaxNameLength) {
    co_return msg::make_reply(ReplyCode::kBadArgs);
  }
  std::string name(name_len, '\0');
  auto fetched = co_await self.move_from(
      env, std::as_writable_bytes(std::span(name)), 0);
  if (!fetched.ok()) co_return msg::make_reply(fetched.code());

  if (!rt_) rt_ = co_await svc::Rt::attach(self, default_context_);

  // Act as a client of the storage servers: open the image and pull it
  // with one bulk MoveTo (the diskless-workstation program-load path).
  auto opened = co_await rt_->open(name, naming::wire::kOpenRead);
  if (!opened.ok()) co_return msg::make_reply(opened.code());
  svc::File image = opened.take();
  auto bytes = co_await image.read_bulk();
  const ReplyCode closed = co_await image.close();
  if (!bytes.ok()) co_return msg::make_reply(bytes.code());
  if (!v::ok(closed)) co_return msg::make_reply(closed);

  Program program;
  program.id = next_id_++;
  program.image_name = name;
  program.bytes = static_cast<std::uint32_t>(bytes.value().size());
  program.started = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  // Instance name: "<leaf>.<id>" so repeated loads coexist.
  std::string leaf = name;
  if (const auto slash = leaf.rfind('/'); slash != std::string::npos) {
    leaf = leaf.substr(slash + 1);
  }
  if (const auto bracket = leaf.rfind(naming::kPrefixClose);
      bracket != std::string::npos) {
    leaf = leaf.substr(bracket + 1);
  }
  const std::string instance_name =
      leaf + "." + std::to_string(program.id);
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(kOffLoadProgramId, program.id);
  reply.set_u32(kOffLoadBytes, program.bytes);
  metric_inc(self, m_programs_loaded_);
  metric_hist(self, "load_bytes", static_cast<double>(program.bytes));
  {
    chk::AccessGuard guard(self, programs_cell_,
                           chk::AccessGuard::Mode::kWrite);
    programs_.emplace(instance_name, program);
  }
  co_return reply;
}

sim::Co<naming::CsnhServer::LookupResult> TeamServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = programs_.find(component);
  if (it == programs_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor TeamServer::describe_program(const std::string& name,
                                                      const Program& p) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kProcess;
  desc.size = p.bytes;
  desc.object_id = p.id;
  desc.mtime = p.started;
  desc.owner = "team";
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> TeamServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(programs_.size());
    co_return desc;
  }
  auto it = programs_.find(leaf);
  if (it == programs_.end()) co_return ReplyCode::kNotFound;
  co_return describe_program(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> TeamServer::remove(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = programs_.find(leaf);
  if (it == programs_.end()) co_return ReplyCode::kNotFound;
  programs_.erase(it);  // "kill"
  co_return ReplyCode::kOk;
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
TeamServer::list_context(ipc::Process& /*self*/, naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(programs_.size());
  for (const auto& [name, p] : programs_) {
    records.push_back(describe_program(name, p));
  }
  co_return records;
}

Result<std::string> TeamServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("programs");
}

}  // namespace v::servers
