// The pipe server — "pipes" are on the paper's own list of things the V
// I/O protocol connects programs to (section 3.2).
//
// A pipe is a named byte queue between producers and consumers.  Opens with
// kOpenWrite are producer ends; kOpenRead opens are consumer ends.  Reads
// on an empty pipe BLOCK — implemented with the message-passing idiom the
// V kernel makes natural: the server simply holds the reader's (still
// blocked) request envelope and replies when data (or end-of-file) arrives.
// No thread ever waits; the blocked state is the un-replied Send.
//
// End-of-file: when the last writer instance is released, queued and
// future reads drain the remaining bytes and then return kEndOfFile.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "naming/csnh_server.hpp"

namespace v::servers {

class PipeServer : public naming::CsnhServer {
 public:
  explicit PipeServer(std::size_t capacity_bytes = 64 * 1024,
                      naming::TeamConfig team = {});

  [[nodiscard]] std::size_t pipe_count() const noexcept {
    return pipes_.size();
  }
  /// Bytes currently buffered in a pipe (test inspection).
  [[nodiscard]] Result<std::size_t> buffered(std::string_view pipe) const;

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
  sim::Co<std::optional<msg::Message>> handle_instance_op(
      ipc::Process& self, ipc::Envelope& env) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;

 private:
  friend class PipeEndInstance;

  struct Pipe {
    std::uint32_t id = 0;
    std::deque<std::byte> buffer;
    int writer_ends = 0;  ///< open writer instances
    int reader_ends = 0;
    bool had_writer = false;  ///< EOF needs a writer to have come AND gone;
                              ///< before the first writer, readers block
                              ///< (FIFO-open semantics)
    std::deque<ipc::Envelope> blocked_readers;  ///< un-replied reads
    std::uint32_t created = 0;
    int in_service = 0;  ///< operations suspended while holding a Pipe&
                         ///< (team workers run concurrently); remove()
                         ///< refuses while non-zero
  };

  naming::ObjectDescriptor describe_pipe(const std::string& name,
                                         const Pipe& pipe) const;
  /// Answer one blocked/incoming read from the pipe's buffer (or EOF).
  sim::Co<void> serve_read(ipc::Process& self, const ipc::Envelope& env,
                           Pipe& pipe);
  /// After a write or writer-close: wake blocked readers that can progress.
  sim::Co<void> drain_blocked(ipc::Process& self, Pipe& pipe);

  std::size_t capacity_bytes_;
  std::map<std::string, Pipe, std::less<>> pipes_;
  std::uint32_t next_id_ = 1;
  /// Pipe buffers are mutated by concurrently suspended team workers; every
  /// mutation must be momentary (claim-then-suspend), which the race
  /// detector enforces through this cell.
  chk::CellState pipe_buffers_cell_{"pipe.buffers"};
  CounterHandle m_blocked_reads_{"blocked_reads"};
};

}  // namespace v::servers
