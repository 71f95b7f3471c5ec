// The mail server — the paper's extensibility case (sections 1, 2.2):
// "names for mailboxes, such as 'cheriton@su-score.ARPA', may be imposed by
// standards established outside of the system in question.  Such
// preexisting servers fit well into a model in which names are normally
// interpreted by the server providing the named objects."
//
// The whole mailbox name is ONE component in a flat context — the server
// overrides parse_component to keep the foreign "user@host" syntax intact,
// needing no blessing from any central name authority.  Delivery is a write
// through the I/O protocol; reading a mailbox returns its messages.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/csnh_server.hpp"

namespace v::servers {

class MailServer : public naming::CsnhServer {
 public:
  explicit MailServer(bool register_service = true,
                      naming::TeamConfig team = {});

  [[nodiscard]] std::size_t mailbox_count() const noexcept {
    return mailboxes_.size();
  }
  [[nodiscard]] Result<std::size_t> message_count(
      std::string_view mailbox) const;

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  /// Foreign syntax: the whole remaining name is one component; '/' has no
  /// meaning in mailbox names.
  std::string_view parse_component(std::string_view name, std::size_t index,
                                   std::size_t& next) override;
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
  friend class MailboxInstance;

  struct Mailbox {
    std::uint32_t id = 0;
    std::vector<std::string> messages;
    std::uint32_t created = 0;
    [[nodiscard]] std::size_t total_bytes() const {
      std::size_t n = 0;
      for (const auto& m : messages) n += m.size() + 1;  // '\n' separators
      return n;
    }
  };

  /// Mailbox names must look like "user@host[.domain]".
  static bool valid_mailbox_name(std::string_view name);

  naming::ObjectDescriptor describe_mailbox(const std::string& name,
                                            const Mailbox& box) const;

  bool register_service_;
  std::map<std::string, Mailbox, std::less<>> mailboxes_;
  std::uint32_t next_id_ = 1;
  CounterHandle m_deliveries_{"deliveries"};
};

}  // namespace v::servers
