#include "servers/printer_server.hpp"

#include <cstring>
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

/// An open print job: write-only spool; each write extends the job and
/// reschedules it behind the printer's current queue.
class PrintJobInstance : public io::InstanceObject {
 public:
  PrintJobInstance(PrinterServer& server, std::string name) noexcept
      : server_(server), name_(std::move(name)) {}

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = io::kInstanceWriteable | io::kInstanceAppendOnly;
    auto it = server_.jobs_.find(name_);
    info.size_bytes =
        it != server_.jobs_.end()
            ? static_cast<std::uint32_t>(it->second.data.size())
            : 0;
    return info;
  }

  sim::Co<Result<std::size_t>> read_block(ipc::Process&, std::uint32_t,
                                          std::span<std::byte>) override {
    co_return ReplyCode::kNotReadable;  // spool contents are private
  }

  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t /*block*/,
      std::span<const std::byte> data) override {
    auto it = server_.jobs_.find(name_);
    if (it == server_.jobs_.end()) co_return ReplyCode::kBadState;
    auto& job = it->second;
    job.data.insert(job.data.end(), data.begin(), data.end());
    job.submitted = self.now();
    server_.schedule_job(job, self.now());
    server_.metric_inc(self, server_.m_spooled_bytes_, data.size());
    co_return data.size();
  }

 private:
  PrinterServer& server_;
  std::string name_;
};

PrinterServer::PrinterServer(std::uint32_t bytes_per_second,
                             bool register_service, naming::TeamConfig team)
    : CsnhServer(team),
      bytes_per_second_(bytes_per_second),
      register_service_(register_service) {}

void PrinterServer::schedule_job(Job& job, sim::SimTime now) {
  // Single print engine: the job starts when the engine frees up.
  job.print_start = std::max(printer_free_at_, now);
  const auto duration = static_cast<sim::SimDuration>(
      job.data.size() * static_cast<std::size_t>(sim::kSecond) /
      std::max<std::uint32_t>(bytes_per_second_, 1));
  printer_free_at_ = job.print_start + duration;
}

PrinterServer::JobStatus PrinterServer::derive_status(
    const Job& job, sim::SimTime now) const {
  if (now < job.print_start) return JobStatus::kQueued;
  const auto duration = static_cast<sim::SimDuration>(
      job.data.size() * static_cast<std::size_t>(sim::kSecond) /
      std::max<std::uint32_t>(bytes_per_second_, 1));
  return now < job.print_start + duration ? JobStatus::kPrinting
                                          : JobStatus::kDone;
}

Result<PrinterServer::JobStatus> PrinterServer::status(
    std::string_view job, sim::SimTime now) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return ReplyCode::kNotFound;
  return derive_status(it->second, now);
}

sim::Co<void> PrinterServer::on_start(ipc::Process& self) {
  if (register_service_) {
    self.set_pid(ipc::ServiceId::kPrinterServer, self.pid(),
                 ipc::Scope::kBoth);
  }
  co_return;
}

sim::Co<naming::CsnhServer::LookupResult> PrinterServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = jobs_.find(component);
  if (it == jobs_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor PrinterServer::describe_job(const std::string& name,
                                                     const Job& job,
                                                     sim::SimTime now) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kPrintJob;
  desc.flags = naming::kWriteable | naming::kAppendOnly;
  desc.size = static_cast<std::uint32_t>(job.data.size());
  desc.object_id = job.id;
  // Encode derived status in the context-id field (documented job-status
  // channel for this record type).
  desc.context_id = static_cast<std::uint32_t>(derive_status(job, now));
  desc.mtime = static_cast<std::uint32_t>(job.submitted / sim::kSecond);
  desc.owner = job.owner;
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> PrinterServer::describe(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(jobs_.size());
    co_return desc;
  }
  auto it = jobs_.find(leaf);
  if (it == jobs_.end()) co_return ReplyCode::kNotFound;
  co_return describe_job(it->first, it->second, self.now());
}

V_GATED_MUTATION
sim::Co<ReplyCode> PrinterServer::create_object(ipc::Process& self,
                                                naming::ContextId ctx,
                                                std::string_view leaf,
                                                std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  if (jobs_.contains(leaf)) co_return ReplyCode::kNameExists;
  Job job;
  job.id = next_id_++;
  job.submitted = self.now();
  jobs_.emplace(std::string(leaf), std::move(job));
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> PrinterServer::remove(ipc::Process& self,
                                         naming::ContextId ctx,
                                         std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = jobs_.find(leaf);
  if (it == jobs_.end()) co_return ReplyCode::kNotFound;
  if (derive_status(it->second, self.now()) == JobStatus::kPrinting) {
    co_return ReplyCode::kBadState;  // cannot cancel mid-print
  }
  jobs_.erase(it);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>>
PrinterServer::open_object(ipc::Process& self, naming::ContextId ctx,
                           std::string_view leaf, std::uint16_t mode) {
  if (!jobs_.contains(leaf)) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<PrintJobInstance>(*this, std::string(leaf)));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
PrinterServer::list_context(ipc::Process& self, naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) {
    records.push_back(describe_job(name, job, self.now()));
  }
  co_return records;
}

Result<std::string> PrinterServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("printer-queue");
}

}  // namespace v::servers
