// V-check layer 2: protocol conformance lint at the kernel Send/Reply
// boundary (DESIGN.md 4e, PROTOCOL.md "Checked header invariants").
//
// The paper's contribution is a *uniform* protocol: every character-string
// name request carries the same CSname header (code, nameindex, namelength,
// mode, forwardcount, contextid) and every reply a typed reply code.  That
// uniformity makes mechanical checking possible: the kernel intercepts each
// message bound for a registered CSNH server and validates the header
// invariants before delivery.  Malformed *client* traffic is rejected fast
// with a synthesized kBadArgs and a decoded-message dump (the server never
// sees it); non-conformant *server* behaviour (a reply code outside the
// registered set, from a registered team pid) is recorded and dumped but
// still delivered, so tests can assert on it.
//
// Context-id resolvability is counted, not rejected: stale cross-server
// context ids are paper-sanctioned (servers answer kInvalidContext and
// clients re-resolve), so an unresolvable id is a statistic, never an error.
//
// Zero-cost when disabled: with V_CHECKS=OFF every member is an inline
// no-op and registration accepts (and discards) any arguments without
// constructing std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/annotate.hpp"
#include "common/flat_map.hpp"
#include "common/reply_codes.hpp"
#include "msg/message.hpp"

#ifndef V_CHECKS_ENABLED
#define V_CHECKS_ENABLED 1
#endif

namespace v::chk {

/// Mirror of naming::kMaxNameLength; csnh_server.cpp static_asserts the two
/// stay equal (chk cannot include naming/ without a layering cycle).
inline constexpr std::uint32_t kMaxCheckedNameLength = 4096;

/// Highest registered ReplyCode value (kStaleContext).  Static-asserted
/// against the real enum where common/reply_codes.hpp is in scope.
inline constexpr std::uint16_t kMaxReplyCode =
    static_cast<std::uint16_t>(v::ReplyCode::kStaleContext);

#if V_CHECKS_ENABLED

/// Decode a message header into a human-readable multi-line dump for
/// violation reports.
std::string decode_message(const msg::Message& m);

class ProtocolLint {
 public:
  struct Counters {
    std::uint64_t requests_checked = 0;
    std::uint64_t replies_checked = 0;
    std::uint64_t client_rejects = 0;
    std::uint64_t server_violations = 0;
    std::uint64_t stale_context_forwards = 0;
    std::uint64_t invalid_context_requests = 0;
    /// A registered server replied to a client with no request outstanding
    /// at that server — an at-most-once violation (V-fault invariant).
    std::uint64_t duplicate_replies = 0;
    /// A server re-registered under a label with a generation floor no
    /// higher than its previous incarnation's — cached bindings from the
    /// old incarnation would not be invalidated (V-fault invariant).
    std::uint64_t stale_incarnations = 0;
  };

  /// Register a CSNH server's receptionist pid.  `ctx_valid` answers
  /// whether a raw context id resolves on that server (used for the
  /// resolvability statistic only).  `gen_floor`, when nonzero, is the
  /// incarnation's generation floor: it must exceed every floor previously
  /// registered under the same label (see Counters::stale_incarnations).
  void register_server(std::uint32_t pid, std::string label,
                       std::function<bool(std::uint32_t)> ctx_valid,
                       std::uint32_t gen_floor = 0);

  /// Register a worker pid as part of a registered server's team, so its
  /// replies are held to the server-conformance checks.  `server_pid`
  /// names the receptionist whose outstanding-request ledger the worker's
  /// replies settle (0 = the worker settles its own).
  void register_worker(std::uint32_t pid, std::string label,
                       std::uint32_t server_pid = 0);

  void forget(std::uint32_t pid);

  /// The server holding `client`'s request forwarded it on: it will never
  /// reply itself, so settle its outstanding-request entry.
  void note_forwarded(std::uint32_t server_pid, std::uint32_t client_pid);

  /// The server deliberately answered `client` with silence (a recovery
  /// probe it cannot serve): settle the entry without a reply.
  void note_unanswered(std::uint32_t server_pid, std::uint32_t client_pid);

  /// Validate a request about to be delivered to `dest`.  Returns the
  /// reply code to synthesize to the sender when the message is malformed
  /// (the message is then NOT delivered), or nullopt to deliver normally.
  /// Messages to unregistered destinations are never checked.
  /// Header-inline fast path: with no servers registered NOTHING is ever
  /// checked (check_request_slow's first move is a servers_ lookup that
  /// misses before any counter bumps), so workloads that never register a
  /// lint server pay one branch per delivery instead of a table probe.
  [[nodiscard]] V_HOT_PATH std::optional<v::ReplyCode> check_request(
      const msg::Message& request, std::uint32_t sender_pid,
      std::size_t read_segment_bytes, std::uint32_t dest_pid,
      std::uint64_t now) {
    if (servers_.empty()) return std::nullopt;
    return check_request_slow(request, sender_pid, read_segment_bytes,
                              dest_pid, now);
  }

  /// Validate a reply sent by `from`.  Only replies from registered server
  /// or worker pids are checked; violations are counted and dumped but the
  /// reply is always delivered.  Same fast path as check_request: the slow
  /// body early-outs (before counting) unless `from` is a registered server
  /// or worker, so an empty registry means a branch, not two table probes.
  V_HOT_PATH void check_reply(const msg::Message& reply, std::uint32_t from_pid,
                              std::uint32_t to_pid, std::uint64_t now) {
    if (servers_.empty() && workers_.empty()) return;
    check_reply_slow(reply, from_pid, to_pid, now);
  }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// The decoded dump of the first violation seen (empty when clean).
  [[nodiscard]] const std::string& first_dump() const noexcept {
    return first_dump_;
  }

 private:
  struct ServerInfo {
    std::string label;
    std::function<bool(std::uint32_t)> ctx_valid;
  };
  struct WorkerInfo {
    std::string label;
    std::uint32_t server_pid = 0;
  };

  [[nodiscard]] std::optional<v::ReplyCode> check_request_slow(
      const msg::Message& request, std::uint32_t sender_pid,
      std::size_t read_segment_bytes, std::uint32_t dest_pid,
      std::uint64_t now);
  void check_reply_slow(const msg::Message& reply, std::uint32_t from_pid,
                        std::uint32_t to_pid, std::uint64_t now);

  void record_dump(std::string dump);
  void settle(std::uint32_t server_pid, std::uint32_t client_pid);

  /// Ledger key: (server receptionist pid, client pid) packed server-high,
  /// so forget() can match a server's entries on the upper half.
  static std::uint64_t pair_key(std::uint32_t server_pid,
                                std::uint32_t client_pid) noexcept {
    return (std::uint64_t{server_pid} << 32) | client_pid;
  }

  // Every per-message lookup below is one open-addressing probe: the
  // registry is consulted on each delivery and reply, the ledger on each
  // checked request, reply and forward.
  FlatMap<std::uint32_t, ServerInfo> servers_;
  FlatMap<std::uint32_t, WorkerInfo> workers_;
  /// pair_key(server, client) -> requests delivered but not yet replied /
  /// forwarded / deliberately left unanswered.
  FlatMap<std::uint64_t, std::uint64_t> outstanding_;
  /// Highest generation floor registered per server label (registration
  /// only, never per message).
  std::map<std::string, std::uint32_t> incarnation_floor_;
  Counters counters_;
  std::string first_dump_;
};

#else  // !V_CHECKS_ENABLED

inline std::string decode_message(const msg::Message&) { return {}; }

class ProtocolLint {
 public:
  struct Counters {
    std::uint64_t requests_checked = 0;
    std::uint64_t replies_checked = 0;
    std::uint64_t client_rejects = 0;
    std::uint64_t server_violations = 0;
    std::uint64_t stale_context_forwards = 0;
    std::uint64_t invalid_context_requests = 0;
    std::uint64_t duplicate_replies = 0;
    std::uint64_t stale_incarnations = 0;
  };

  // Variadic templates: call sites pay nothing (no std::function, no
  // std::string is ever constructed for a discarded registration).
  template <typename... Args>
  void register_server(Args&&...) noexcept {}
  template <typename... Args>
  void register_worker(Args&&...) noexcept {}
  void forget(std::uint32_t) noexcept {}
  void note_forwarded(std::uint32_t, std::uint32_t) noexcept {}
  void note_unanswered(std::uint32_t, std::uint32_t) noexcept {}

  [[nodiscard]] std::optional<v::ReplyCode> check_request(
      const msg::Message&, std::uint32_t, std::size_t, std::uint32_t,
      std::uint64_t) noexcept {
    return std::nullopt;
  }
  void check_reply(const msg::Message&, std::uint32_t, std::uint32_t,
                   std::uint64_t) noexcept {}

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] const std::string& first_dump() const noexcept {
    return first_dump_;
  }

 private:
  Counters counters_;
  std::string first_dump_;
};

#endif  // V_CHECKS_ENABLED

}  // namespace v::chk
