#include "wload/forest.hpp"

namespace v::wload {

namespace {

/// FNV-1a over the name: the content oracle's per-file fingerprint.
std::uint64_t fingerprint(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Forest::Forest(ForestSpec spec) : spec_(std::move(spec)) {
  if (spec_.prefixes == 0) spec_.prefixes = 1;
  if (spec_.dirs_per_prefix == 0) spec_.dirs_per_prefix = 1;
  if (spec_.files_per_dir == 0) spec_.files_per_dir = 1;
  const bool fixed = spec_.name_min == 0;
  Splitmix64 rng(spec_.seed);
  prefix_names_.reserve(spec_.prefixes);
  for (std::size_t p = 0; p < spec_.prefixes; ++p) {
    if (fixed || !spec_.prefix_stem.empty()) {
      prefix_names_.push_back(spec_.prefix_stem + std::to_string(p));
    } else {
      // Random stem + index suffix: realistic length spread, guaranteed
      // unique (the suffix), still a single deterministic stream.
      prefix_names_.push_back(component(rng) + std::to_string(p));
    }
  }
  dir_names_.reserve(spec_.prefixes * spec_.dirs_per_prefix);
  names_.reserve(spec_.prefixes * spec_.dirs_per_prefix *
                 spec_.files_per_dir);
  rel_paths_.reserve(names_.capacity());
  for (std::size_t p = 0; p < spec_.prefixes; ++p) {
    for (std::size_t d = 0; d < spec_.dirs_per_prefix; ++d) {
      std::string dir = fixed ? std::string("d") : component(rng);
      dir += std::to_string(d);
      for (std::size_t f = 0; f < spec_.files_per_dir; ++f) {
        std::string leaf = fixed ? std::string("f") : component(rng);
        leaf += std::to_string(f);
        if (fixed) leaf += ".dat";
        names_.push_back("[" + prefix_names_[p] + "]" + dir + "/" + leaf);
        rel_paths_.push_back(prefix_names_[p] + "/" + dir + "/" + leaf);
      }
      dir_names_.push_back(std::move(dir));
    }
  }
}

std::string Forest::component(Splitmix64& rng) const {
  const std::size_t span = spec_.name_max >= spec_.name_min
                               ? spec_.name_max - spec_.name_min + 1
                               : 1;
  const std::size_t len = spec_.name_min + rng.below(span);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng.below(26)));
  }
  return out;
}

std::string Forest::content_for(std::string_view name) {
  // 32 hex digits of name-derived bytes plus the name itself: unique per
  // file, self-describing in dumps, and small enough for one block.
  static constexpr char kHex[] = "0123456789abcdef";
  Splitmix64 rng(fingerprint(name));
  std::string out;
  out.reserve(34 + name.size());
  for (int word = 0; word < 2; ++word) {
    std::uint64_t v = rng.next();
    for (int i = 0; i < 16; ++i) {
      out.push_back(kHex[v & 0xf]);
      v >>= 4;
    }
  }
  out.push_back(':');
  out.append(name);
  return out;
}

std::vector<std::pair<std::string, servers::ContextPrefixServer::Entry>>
Forest::install(std::span<servers::FileServer* const> servers,
                std::span<const ipc::ProcessId> pids) const {
  std::vector<std::pair<std::string, servers::ContextPrefixServer::Entry>>
      bindings;
  bindings.reserve(prefix_names_.size());
  for (std::size_t f = 0; f < names_.size(); ++f) {
    const std::size_t s = prefix_of(f) % servers.size();
    servers[s]->put_file(rel_paths_[f], content_for(names_[f]));
  }
  for (std::size_t p = 0; p < prefix_names_.size(); ++p) {
    const std::size_t s = p % servers.size();
    bindings.emplace_back(
        prefix_names_[p],
        servers::ContextPrefixServer::Entry{
            .target = {pids[s], servers[s]->context_of(prefix_names_[p])}});
  }
  return bindings;
}

}  // namespace v::wload
