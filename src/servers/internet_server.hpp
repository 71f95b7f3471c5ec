// The Internet server — section 6's "V kernel-based implementation of
// IP/TCP", reduced to its naming-relevant surface: TCP connections are
// named objects ("host:port" in the server's single context), opened and
// used through the V I/O protocol, and enumerated by the same context
// directory mechanism as files and terminals.
//
// The network behind it is simulated: connections echo their written bytes
// back (a loopback peer) after a configurable round-trip delay.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

class InternetServer : public naming::CsnhServer {
 public:
  /// `rtt` is the simulated remote peer round-trip time per write.
  explicit InternetServer(sim::SimDuration rtt = 20 * sim::kMillisecond,
                          bool register_service = true,
                          naming::TeamConfig team = {});

  enum class ConnState { kOpen, kClosed };

  [[nodiscard]] std::size_t connection_count() const noexcept {
    return connections_.size();
  }

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
  friend class ConnectionInstance;

  struct Connection {
    std::uint32_t id = 0;
    ConnState state = ConnState::kOpen;
    std::vector<std::byte> inbound;  ///< bytes the peer "sent" us
    std::uint64_t bytes_sent = 0;
    std::uint32_t opened = 0;
  };

  /// "host:port" names are validated on create.
  static bool valid_endpoint(std::string_view name);

  naming::ObjectDescriptor describe_conn(const std::string& name,
                                         const Connection& c) const;

  sim::SimDuration rtt_;
  bool register_service_;
  std::map<std::string, Connection, std::less<>> connections_;
  std::uint32_t next_id_ = 1;
  CounterHandle m_connections_opened_{"connections_opened"};
};

}  // namespace v::servers
