// The exception server — one of the per-workstation servers of section 6
// ("exception server"), reconstructed: processes raise exception reports
// with a custom operation; each report becomes a named, queryable, readable
// object in the server's context, so the SAME list-directory/query/open
// machinery that works on files works on pending exceptions (a debugger is
// just another client of the name-handling protocol).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

// --- kRaiseException wire layout (non-CSname request) ---------------------
inline constexpr std::uint16_t kRaiseException = 0x0305;
inline constexpr std::size_t kOffExcCode = 2;        // u16 fault code
inline constexpr std::size_t kOffExcDetailLen = 4;   // u16 report text bytes
// Reply:
inline constexpr std::size_t kOffExcReportId = 2;    // u16 new report id

/// Well-known fault codes (descriptor.object_id low bits).
enum class FaultCode : std::uint16_t {
  kUnknown = 0,
  kAddressError = 1,
  kIllegalInstruction = 2,
  kProtocolViolation = 3,
  kResourceExhausted = 4,
};

class ExceptionServer : public naming::CsnhServer {
 public:
  explicit ExceptionServer(bool register_service = true,
                           naming::TeamConfig team = {});

  /// Client helper: raise an exception report at `server` (resolve it via
  /// GetPid(kExceptionServer, kLocal) first).  Returns the report id.
  static sim::Co<Result<std::uint16_t>> raise(ipc::Process self,
                                              ipc::ProcessId server,
                                              FaultCode code,
                                              std::string_view detail);

  [[nodiscard]] std::size_t pending_count() const noexcept {
    return reports_.size();
  }

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override;
  sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
      std::uint16_t mode) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;

 private:
  struct Report {
    std::uint16_t id = 0;
    ipc::ProcessId faulting;
    FaultCode code = FaultCode::kUnknown;
    std::string detail;
    std::uint32_t raised = 0;
  };

  naming::ObjectDescriptor describe_report(const std::string& name,
                                           const Report& r) const;

  bool register_service_;
  std::map<std::string, Report, std::less<>> reports_;
  /// kRaiseException mutates reports_ from handle_custom, outside any
  /// (ctx,leaf) gate; annotate the write for the race detector instead.
  chk::CellState reports_cell_{"exception.reports"};
  std::uint16_t next_id_ = 1;
  CounterHandle m_exceptions_raised_{"exceptions_raised"};
};

}  // namespace v::servers
