// The virtual (graphics) terminal server (paper sections 2.2, 6).
//
// The paper's example of a server providing "a small number of transient
// objects" whose names and attributes live in memory.  Terminals are
// created by name, carry an input/output transcript readable and writeable
// through the V I/O protocol, and appear in the server's context directory
// with type kTerminal — one of the contexts the single "list directory"
// command handles uniformly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

class TerminalServer : public naming::CsnhServer {
 public:
  explicit TerminalServer(bool register_service = true,
                          naming::TeamConfig team = {});

  [[nodiscard]] std::size_t terminal_count() const noexcept {
    return terminals_.size();
  }
  /// Transcript bytes of a terminal (test inspection).
  [[nodiscard]] Result<std::string> transcript(std::string_view name) const;

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
  friend class TerminalInstance;

  struct Terminal {
    std::uint32_t id = 0;
    std::vector<std::byte> transcript;
    std::string owner = "user";
    std::uint32_t created = 0;
  };

  naming::ObjectDescriptor describe_terminal(const std::string& name,
                                             const Terminal& t) const;

  bool register_service_;
  std::map<std::string, Terminal, std::less<>> terminals_;
  std::uint32_t next_id_ = 1;
  CounterHandle m_chars_written_{"chars_written"};
};

}  // namespace v::servers
