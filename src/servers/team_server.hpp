// The team server (program manager) — section 3.1's program-loading path
// and section 6's "programs in execution" context.
//
// kLoadProgram names a program file (any CSname the workstation's runtime
// can resolve, e.g. "[bin]edit"); the team server opens it and pulls the
// whole image with the bulk-transfer path — one MoveTo, which is how a
// diskless SUN loaded a 64 KB program in 338 ms.  Loaded programs appear as
// kProcess records in the team server's context directory and can be
// queried/removed (killed) through the standard protocol.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "naming/csnh_server.hpp"
#include "svc/runtime.hpp"

namespace v::servers {

// --- kLoadProgram wire layout (non-CSname request: the program name is the
// --- whole read segment; it must not be interpreted against the team
// --- server's own context space).
inline constexpr std::size_t kOffLoadNameLength = 2;  // u16
// Reply:
inline constexpr std::size_t kOffLoadProgramId = 2;   // u16
inline constexpr std::size_t kOffLoadBytes = 4;       // u32 image size

class TeamServer : public naming::CsnhServer {
 public:
  /// `default_context` is the context for program names without a prefix.
  explicit TeamServer(naming::ContextPair default_context,
                      bool register_service = true,
                      naming::TeamConfig team = {});

  [[nodiscard]] std::size_t program_count() const noexcept {
    return programs_.size();
  }

  /// Client helper: ask `team` to load `program_name`.
  /// Returns the new program's id.
  static sim::Co<Result<std::uint16_t>> load_program(ipc::Process self,
                                                     ipc::ProcessId team,
                                                     std::string_view name);

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;

 private:
  struct Program {
    std::uint16_t id = 0;
    std::string image_name;  ///< the CSname it was loaded from
    std::uint32_t bytes = 0;
    std::uint32_t started = 0;
  };

  sim::Co<msg::Message> do_load(ipc::Process& self, ipc::Envelope& env);
  naming::ObjectDescriptor describe_program(const std::string& name,
                                            const Program& p) const;

  naming::ContextPair default_context_;
  bool register_service_;
  std::map<std::string, Program, std::less<>> programs_;
  /// do_load mutates programs_ from handle_custom, outside any (ctx,leaf)
  /// gate; annotate the write for the race detector instead.
  chk::CellState programs_cell_{"team.programs"};
  std::uint16_t next_id_ = 1;
  std::optional<svc::Rt> rt_;  ///< lazily attached workstation runtime
  CounterHandle m_programs_loaded_{"programs_loaded"};
};

}  // namespace v::servers
