// The printer (spooler) server — the "laser printer server" of section 6.
//
// Print jobs are created by name, filled through the I/O protocol, and
// listed in the context directory with type kPrintJob.  A job's status
// (queued / printing / done) is derived from submission time and the
// simulated print rate, so queries observe progress without a background
// process.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

class PrinterServer : public naming::CsnhServer {
 public:
  /// `bytes_per_second` models printer throughput for status derivation.
  explicit PrinterServer(std::uint32_t bytes_per_second = 1000,
                         bool register_service = true,
                         naming::TeamConfig team = {});

  enum class JobStatus { kQueued, kPrinting, kDone };

  [[nodiscard]] std::size_t job_count() const noexcept {
    return jobs_.size();
  }
  /// Derived status of a job at simulated time `now`.
  [[nodiscard]] Result<JobStatus> status(std::string_view job,
                                         sim::SimTime now) const;

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t mode) override;
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override;
  sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
      std::uint16_t mode) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;

 private:
  friend class PrintJobInstance;

  struct Job {
    std::uint32_t id = 0;
    std::vector<std::byte> data;
    std::string owner = "user";
    sim::SimTime submitted = 0;     ///< last write time
    sim::SimTime print_start = 0;   ///< when the printer reached this job
  };

  [[nodiscard]] JobStatus derive_status(const Job& job,
                                        sim::SimTime now) const;
  naming::ObjectDescriptor describe_job(const std::string& name,
                                        const Job& job,
                                        sim::SimTime now) const;
  void schedule_job(Job& job, sim::SimTime now);

  std::uint32_t bytes_per_second_;
  bool register_service_;
  std::map<std::string, Job, std::less<>> jobs_;
  std::uint32_t next_id_ = 1;
  sim::SimTime printer_free_at_ = 0;  ///< when the (single) engine frees up
  CounterHandle m_spooled_bytes_{"spooled_bytes"};
};

}  // namespace v::servers
