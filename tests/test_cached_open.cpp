// The stale-binding test matrix for the validated cached open path
// (DESIGN.md 4g, PROTOCOL.md 11):
//
//   - mutation-then-reopen under the schedule fuzzer: a context mutation
//     (MakeContext) between two cached opens must surface as kStaleContext
//     and a correct re-resolution under EVERY explored interleaving, never
//     a wrong answer; a leaf mutation (a plain file created, renamed or
//     removed) must keep the binding valid and still answer exactly;
//   - crash of the cached target: the one-hop send dies with kNoReply, the
//     entry is invalidated, and the fallback walk reports the truth;
//   - concurrent invalidation: two worker processes sharing one cache, one
//     of them churning the directory, stay correct and race-free;
//   - a mid-path `..` ("usr/mann/../../bin/edit"): a walk the final
//     context's generation cannot validate is never cached, so a rename
//     above it answers as the uncached open does;
//   - the model-checked matrix: two workstations sharing a cache interleave
//     random mutations of every kind with cached opens on two servers, and
//     every reply is compared with a sequential model of the name space,
//     once with a roomy cache and once with a 4-entry cache whose
//     admission refusals and evictions interleave with the mutations;
//   - the wire-level accounting: a warm hit is exactly ONE message
//     transaction, its trace is a single hop span, the namecache counters
//     are readable through Open("[metrics]namecache/..."), and malformed
//     expected-generation headers are rejected (kBadArgs) by the lint.
//
// Reproduce one failing seed standalone:
//   V_FUZZ_SEED=0x5eed0007 build/tests/test_cached_open
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "msg/csname.hpp"
#include "msg/request_codes.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/metrics_server.hpp"
#include "sim/condition.hpp"
#include "svc/name_cache.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;
using sim::kMillisecond;
using svc::NameCache;
using test::VFixture;

constexpr std::uint64_t kSeedBase = 0x5eed0000ULL;

/// Same sweep contract as test_schedule_fuzz: V_FUZZ_SEED pins a single
/// seed (repro mode), V_FUZZ_SEEDS widens/narrows the count (default 16).
std::vector<std::uint64_t> sweep_seeds() {
  if (const char* pin = std::getenv("V_FUZZ_SEED")) {
    return {std::strtoull(pin, nullptr, 0)};
  }
  std::size_t count = 16;
  if (const char* n = std::getenv("V_FUZZ_SEEDS")) {
    count = std::strtoull(n, nullptr, 0);
    if (count == 0) count = 1;
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(kSeedBase + i);
  return seeds;
}

std::string repro(std::uint64_t seed, std::string_view scenario) {
  std::ostringstream out;
  out << scenario << " failed under seed 0x" << std::hex << seed
      << "; reproduce with: V_FUZZ_SEED=0x" << seed
      << " tests/test_cached_open";
  return out.str();
}

/// Open `name` through `rt`, assert success and that the bytes match
/// `expect`, and close.  The correctness oracle of the whole matrix: a
/// stale binding may cost a refusal + re-resolution, never wrong bytes.
Co<void> open_expect(svc::Rt& rt, std::string_view name,
                     std::string_view expect) {
  auto opened = co_await rt.open(name, kOpenRead);
  EXPECT_TRUE(opened.ok()) << "open(" << name << ") -> "
                           << to_string(opened.code());
  if (!opened.ok()) co_return;
  svc::File f = opened.take();
  auto bytes = co_await f.read_all();
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) co_return;
  EXPECT_EQ(std::string(
                reinterpret_cast<const char*>(bytes.value().data()),
                bytes.value().size()),
            expect);
  EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
}

// --- the fuzzed mutation matrix --------------------------------------------------

TEST(CachedOpen, FuzzedMutationThenReopenNeverLies) {
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "mutation-then-reopen"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
      NameCache cache;
      rt.set_cache(&cache);
      // Cold open learns the binding for usr/mann.
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      EXPECT_EQ(cache.size(), 1u);
      // A context mutation (a new subdirectory is a context-valued entry)
      // advances the directory's generation underneath the cached binding.
      EXPECT_EQ(co_await rt.make_context("usr/mann/fresh"), ReplyCode::kOk);
      // The reopen takes the one-hop path, is REFUSED with kStaleContext,
      // and transparently re-resolves to the correct bytes.
      co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
      EXPECT_EQ(cache.stale(), 1u);
      EXPECT_EQ(cache.fallbacks(), 1u);
      // The fallback re-learned the binding at the new generation: the
      // next open validates cleanly.
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      EXPECT_EQ(cache.stale(), 1u);
      EXPECT_GE(cache.hits(), 2u);  // the refused hit + the clean hit
      rt.set_cache(nullptr);
    });
  }
}

TEST(CachedOpen, FuzzedLeafMutationThenReopenKeepsBinding) {
  // The leaf-only twin: creating, renaming or removing a plain file changes
  // no context-valued entry, so the directory's generation stays and every
  // reopen is a validated one-hop hit — which interprets the leaf afresh
  // and so still answers exactly what the name space now says.
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "leaf-mutation-then-reopen"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
      NameCache cache;
      rt.set_cache(&cache);
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      EXPECT_EQ(co_await rt.create("usr/mann/fresh.txt"), ReplyCode::kOk);
      co_await open_expect(rt, "usr/mann/fresh.txt", "");
      // Renamed: the new name opens with the old bytes, the old name is
      // gone — both answered through the cached binding.
      EXPECT_EQ(co_await rt.rename("usr/mann/paper.mss", "final.mss"),
                ReplyCode::kOk);
      co_await open_expect(rt, "usr/mann/final.mss", "ICDCS 1984.");
      auto old_name = co_await rt.open("usr/mann/paper.mss", kOpenRead);
      EXPECT_EQ(old_name.code(), ReplyCode::kNotFound);
      // Removed: the opened file's name now answers kNotFound.
      EXPECT_EQ(co_await rt.remove("usr/mann/naming.mss"), ReplyCode::kOk);
      auto removed = co_await rt.open("usr/mann/naming.mss", kOpenRead);
      EXPECT_EQ(removed.code(), ReplyCode::kNotFound);
      EXPECT_EQ(cache.stale(), 0u);
      EXPECT_EQ(cache.fallbacks(), 0u);
      EXPECT_EQ(cache.misses(), 1u);  // only the cold open walked
      EXPECT_EQ(cache.hits(), 4u);
      rt.set_cache(nullptr);
    });
  }
}

TEST(CachedOpen, FuzzedCrashedTargetFallsBackDetectably) {
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "crash-then-reopen"));
    VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
                servers::DiskModel::kMemory, {}, seed);
    fx.dom.loop().schedule_at(50 * kMillisecond, [&fx] { fx.fs2.crash(); });
    fx.run_client([](ipc::Process self, svc::Rt rt) -> Co<void> {
      NameCache cache;
      rt.set_cache(&cache);
      co_await open_expect(rt, "[beta]pub/readme", "public files live here");
      co_await self.delay(100 * kMillisecond);  // beta dies
      // The one-hop send hits the dead server (kNoReply), the entry is
      // invalidated, and the full walk reports the failure loudly.
      auto reopened = co_await rt.open("[beta]pub/readme", kOpenRead);
      EXPECT_FALSE(reopened.ok());
      EXPECT_EQ(cache.invalidations(), 1u);
      EXPECT_EQ(cache.fallbacks(), 1u);
      EXPECT_EQ(cache.size(), 0u);
      rt.set_cache(nullptr);
    });
  }
}

TEST(CachedOpen, ContextLeafOpenKeepsDirectoryBinding) {
  // A cached open whose leaf itself names a context (a cross-server link,
  // a subdirectory) is interpreted past the leaf boundary.  Its reply hint
  // describes that context and must not replace the directory's binding,
  // or the directory's next open would be sent to the wrong context.
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    co_await open_expect(rt, "usr/mann/naming.mss",
                         "Distributed name interpretation.");
    for (const char* leaf : {"proj", "sub"}) {
      const std::string context_name = std::string("usr/mann/") + leaf;
      if (std::string_view(leaf) == "sub") {
        // The new subdirectory refuses the binding once (a context
        // mutation); the next open re-learns it.
        EXPECT_EQ(co_await rt.make_context(context_name), ReplyCode::kOk);
        co_await open_expect(rt, "usr/mann/naming.mss",
                             "Distributed name interpretation.");
      }
      auto directory = co_await rt.open(context_name, kOpenRead);
      EXPECT_TRUE(directory.ok()) << context_name;
      if (directory.ok()) {
        svc::File f = directory.take();
        EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
      }
      co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
    }
    EXPECT_EQ(cache.stale(), 1u);
    EXPECT_EQ(cache.fallbacks(), 1u);
    rt.set_cache(nullptr);
  });
}

/// Two worker processes on ws1 share ONE cache: worker A re-opens
/// usr/mann/naming.mss through the shared binding while worker B churns
/// the same directory with `churn(rt, i)` and opens paper.mss.  Every
/// open must return the right bytes, and the race detector and lint must
/// stay silent under every interleaving.
void two_workers_share_cache(
    std::uint64_t seed, NameCache& shared,
    const std::function<Co<void>(svc::Rt&, int)>& churn) {
  VFixture fx(ipc::CalibrationParams::SunWorkstation3Mbit(),
              servers::DiskModel::kMemory, {}, seed);
  bool a_done = false;
  bool b_done = false;
  fx.ws1.spawn("worker-a", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {fx.prefix_pid,
                      {fx.alpha_pid, naming::kDefaultContext}});
    rt.set_cache(&shared);
    for (int i = 0; i < 8; ++i) {
      co_await open_expect(rt, "usr/mann/naming.mss",
                           "Distributed name interpretation.");
      co_await self.delay(kMillisecond);
    }
    rt.set_cache(nullptr);
    a_done = true;
  });
  fx.ws1.spawn("worker-b", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {fx.prefix_pid,
                      {fx.alpha_pid, naming::kDefaultContext}});
    rt.set_cache(&shared);
    for (int i = 0; i < 8; ++i) {
      co_await churn(rt, i);
      co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
    }
    rt.set_cache(nullptr);
    b_done = true;
  });
  fx.dom.run();
  fx.check_clean();
  EXPECT_TRUE(a_done) << "worker A parked forever";
  EXPECT_TRUE(b_done) << "worker B parked forever";
}

TEST(CachedOpen, FuzzedConcurrentInvalidationTwoWorkers) {
  // Worker B's churn makes subdirectories — context mutations — so the
  // shared bindings for usr/mann are refused and re-resolved.
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "two-worker shared cache"));
    NameCache shared;
    two_workers_share_cache(seed, shared, [](svc::Rt& rt, int i) -> Co<void> {
      const std::string dir = "usr/mann/b" + std::to_string(i);
      EXPECT_EQ(co_await rt.make_context(dir), ReplyCode::kOk);
    });
    // Every fallback in this scenario is a stale refusal (nothing died),
    // and at least one binding was actually invalidated by the churn.
    EXPECT_EQ(shared.fallbacks(), shared.stale());
    EXPECT_GE(shared.stale(), 1u);
    EXPECT_GE(shared.hits(), 1u);
  }
}

TEST(CachedOpen, FuzzedConcurrentLeafChurnTwoWorkers) {
  // The leaf-only twin: worker B creates, renames and removes plain files
  // in the shared directory.  No binding goes stale, and B's own view of
  // its files is exact through the cache.
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "two-worker leaf churn"));
    NameCache shared;
    two_workers_share_cache(seed, shared, [](svc::Rt& rt, int i) -> Co<void> {
      const std::string name = "usr/mann/b" + std::to_string(i) + ".txt";
      const std::string new_leaf =
          std::string("r").append(std::to_string(i)).append(".txt");
      const std::string renamed = "usr/mann/" + new_leaf;
      EXPECT_EQ(co_await rt.create(name), ReplyCode::kOk);
      EXPECT_EQ(co_await rt.rename(name, new_leaf), ReplyCode::kOk);
      co_await open_expect(rt, renamed, "");
      auto gone = co_await rt.open(name, kOpenRead);
      EXPECT_EQ(gone.code(), ReplyCode::kNotFound);
      if (i % 2 == 0) {
        EXPECT_EQ(co_await rt.remove(renamed), ReplyCode::kOk);
      }
    });
    EXPECT_EQ(shared.stale(), 0u);
    EXPECT_EQ(shared.fallbacks(), 0u);
    EXPECT_GE(shared.hits(), 1u);
  }
}

// --- walks a hit could not validate ------------------------------------------------

TEST(CachedOpen, MidPathDotDotReopenMatchesUncachedOpen) {
  // A `..` followed by more directory components: renaming usr/mann bumps
  // usr and mann's subtree but not bin, so a binding learned through
  // "usr/mann/../../bin" would survive the rename and keep answering.  The
  // server withholds the hint for such walks; the second name climbs on
  // alpha and then forwards through the proj link, so beta learns of the
  // `..` from the envelope.  After the rename, each cached reopen must
  // answer exactly as the uncached open does.
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    const std::string names[] = {"usr/mann/../../bin/edit",
                                 "usr/../usr/mann/proj/readme"};
    NameCache cache;
    rt.set_cache(&cache);
    co_await open_expect(rt, names[0], std::string(4096, 'E'));
    co_await open_expect(rt, names[1], "public files live here");
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(co_await rt.rename("usr/mann", "m2"), ReplyCode::kOk);
    for (const std::string& name : names) {
      rt.set_cache(&cache);
      auto cached = co_await rt.open(name, kOpenRead);
      rt.set_cache(nullptr);
      auto uncached = co_await rt.open(name, kOpenRead);
      EXPECT_EQ(to_string(cached.code()), to_string(uncached.code())) << name;
      EXPECT_EQ(uncached.code(), ReplyCode::kNotFound) << name;
      for (auto* opened : {&cached, &uncached}) {
        if (!opened->ok()) continue;
        svc::File f = opened->take();
        EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
      }
    }
  });
}

// --- model-checked mutation/reopen matrix ------------------------------------------

/// Sequential model of two file servers' name spaces.  Server A's root
/// holds the only cross-server links (to directories on server B), so
/// every forwarded walk originates in A's root and a link edit sweeps the
/// bindings it routed (DESIGN.md 4g keeps the deeper-link residual).
class NameModel {
 public:
  enum class Kind { kFile, kDir, kLink };
  struct Node {
    Kind kind = Kind::kDir;
    int server = 0;   ///< 0 = server A, 1 = server B
    int parent = -1;  ///< enclosing directory; a root is its own parent
    std::string name;
    std::string bytes;                   ///< files
    std::map<std::string, int> entries;  ///< directories
    int target = -1;                     ///< links: a directory on B
    naming::ContextId ctx = 0;           ///< directories: server's id
    bool alive = true;
  };
  /// Where interpreting a name ends: the reply code, the directory the
  /// leaf was dispatched in and the object named (a file, or `dir` itself
  /// when the name ends in a context).
  struct Walk {
    ReplyCode code = ReplyCode::kOk;
    int dir = -1;
    int node = -1;
  };

  NameModel() {
    nodes_.resize(2);
    nodes_[kRootB].server = 1;
    nodes_[kRootA].parent = kRootA;
    nodes_[kRootB].parent = kRootB;
  }
  static constexpr int kRootA = 0;
  static constexpr int kRootB = 1;

  [[nodiscard]] const Node& at(int id) const { return nodes_[id]; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }

  int add(int dir, Kind kind, std::string name) {
    const int id = size();
    nodes_.emplace_back();
    nodes_[id].kind = kind;
    nodes_[id].server = nodes_[dir].server;
    nodes_[id].parent = dir;
    nodes_[id].name = name;
    nodes_[dir].entries.emplace(std::move(name), id);
    return id;
  }
  void set_bytes(int id, std::string bytes) {
    nodes_[id].bytes = std::move(bytes);
  }
  void set_ctx(int id, naming::ContextId ctx) { nodes_[id].ctx = ctx; }

  /// Interpret `name` from A's root the way CsnhServer does; `define`
  /// stops before the last component (the ops that define a leaf).
  [[nodiscard]] Walk walk(std::string_view name, bool define) const {
    const auto parts = split(name);
    int cur = kRootA;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const bool last = i + 1 == parts.size();
      if (define && last) return {ReplyCode::kOk, cur, -1};
      if (parts[i] == ".") continue;
      if (parts[i] == "..") {
        cur = nodes_[cur].parent;
        continue;
      }
      const auto it = nodes_[cur].entries.find(parts[i]);
      if (it == nodes_[cur].entries.end()) return {ReplyCode::kNotFound};
      const Node& entry = nodes_[it->second];
      if (entry.kind == Kind::kFile) {
        if (!last) return {ReplyCode::kNotAContext};
        return {ReplyCode::kOk, cur, it->second};
      }
      cur = entry.kind == Kind::kDir ? it->second : entry.target;
      if (!nodes_[cur].alive) return {ReplyCode::kInvalidContext};
    }
    return {ReplyCode::kOk, cur, cur};
  }

  /// Apply a leaf-defining op's effect; returns the reply it must get.
  ReplyCode create(int dir, const std::string& leaf, Kind kind, int target,
                   int* made) {
    if (nodes_[dir].entries.contains(leaf)) return ReplyCode::kNameExists;
    *made = add(dir, kind, leaf);
    nodes_[*made].target = target;
    return ReplyCode::kOk;
  }
  ReplyCode remove(int dir, const std::string& leaf) {
    const auto it = nodes_[dir].entries.find(leaf);
    if (it == nodes_[dir].entries.end()) return ReplyCode::kNotFound;
    Node& node = nodes_[it->second];
    if (node.kind == Kind::kDir && !node.entries.empty()) {
      return ReplyCode::kBadState;
    }
    node.alive = false;
    nodes_[dir].entries.erase(it);
    return ReplyCode::kOk;
  }
  ReplyCode rename(int dir, const std::string& leaf,
                   const std::string& new_leaf) {
    auto& entries = nodes_[dir].entries;
    const auto it = entries.find(leaf);
    if (it == entries.end()) return ReplyCode::kNotFound;
    if (entries.contains(new_leaf)) return ReplyCode::kNameExists;
    const int id = it->second;
    entries.erase(it);
    entries.emplace(new_leaf, id);
    nodes_[id].name = new_leaf;
    return ReplyCode::kOk;
  }

  /// Path of `dir` inside its own server ("" for the root).
  [[nodiscard]] std::string local_path(int id) const {
    std::string path;
    for (; nodes_[id].parent != id; id = nodes_[id].parent) {
      path = path.empty() ? nodes_[id].name : nodes_[id].name + "/" + path;
    }
    return path;
  }
  /// A name that reaches node `id` from A's root (through a root link for
  /// B's nodes), or "" when none does.  Roots are not nameable this way.
  [[nodiscard]] std::string name_of(int id) const {
    if (nodes_[id].server == 0) return local_path(id);
    for (const auto& [link_name, link] : nodes_[kRootA].entries) {
      const Node& l = nodes_[link];
      if (l.kind != Kind::kLink || !nodes_[l.target].alive) continue;
      std::string rest;
      for (int n = id;; n = nodes_[n].parent) {
        if (n == l.target) return rest.empty() ? link_name
                                               : link_name + "/" + rest;
        if (nodes_[n].parent == n) break;
        rest = rest.empty() ? nodes_[n].name : nodes_[n].name + "/" + rest;
      }
    }
    return "";
  }
  /// Live nodes of `kind` that name_of can reach.
  [[nodiscard]] std::vector<int> reachable(Kind kind) const {
    std::vector<int> out;
    for (int id = 0; id < size(); ++id) {
      const Node& n = nodes_[id];
      if (n.alive && n.kind == kind && n.parent != id &&
          !name_of(id).empty()) {
        out.push_back(id);
      }
    }
    return out;
  }

 private:
  static std::vector<std::string> split(std::string_view name) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= name.size()) {
      const auto slash = name.find('/', start);
      const auto end = slash == std::string_view::npos ? name.size() : slash;
      parts.emplace_back(name.substr(start, end - start));
      start = end + 1;
    }
    return parts;
  }

  std::vector<Node> nodes_;
};

/// One seed of the matrix: two workstations share a NameCache and take
/// turns at random; each turn is one step drawn from file create, remove
/// and rename (any entry kind, so links and directories too), MakeContext,
/// directory rename, empty-directory removal, LinkContext, removal or
/// rename of a root link, or a cached open + read of a random name, often
/// one opened before the name space moved.  Every reply is checked
/// against the model.
class MutationMatrix {
 public:
  static constexpr int kSteps = 240;

  struct Coverage {
    std::uint64_t ok_mutations[8] = {};  ///< per Op below kOpen
    std::uint64_t opens = 0;
    std::uint64_t hits = 0;
    std::uint64_t stale = 0;
    std::uint64_t refused = 0;  ///< admissions the full cache declined
  };

  MutationMatrix(std::uint64_t seed, std::size_t cache_capacity,
                 Coverage& coverage)
      : cache_(cache_capacity), rng_(seed), coverage_(coverage) {
    dom_.loop().enable_fuzz(seed);
    build_forest();
  }

  void run() {
    auto& ws_a = dom_.add_host("ws-a");
    auto& ws_b = dom_.add_host("ws-b");
    int finished = 0;
    auto workstation = [this, &finished](int me) {
      return [this, me, &finished](ipc::Process self) -> Co<void> {
        svc::Rt rt(self, {ipc::ProcessId::invalid(),
                          {pid_[0], naming::kDefaultContext}});
        rt.set_cache(&cache_);
        for (;;) {
          while (turn_ != me && done_ < kSteps) {
            co_await self.wait_on(turns_);
          }
          if (done_ >= kSteps) break;
          co_await step(rt);
          ++done_;
          turn_ = static_cast<int>(rng_() % 2);
          turns_.notify_all(dom_.loop());
        }
        rt.set_cache(nullptr);
        ++finished;
      };
    };
    ws_a.spawn("ws-a", workstation(0));
    ws_b.spawn("ws-b", workstation(1));
    dom_.run();
    EXPECT_EQ(finished, 2) << "a workstation parked forever";
    EXPECT_EQ(dom_.process_failures(), 0u) << dom_.first_failure();
    EXPECT_EQ(dom_.lint().counters().server_violations, 0u)
        << dom_.lint().first_dump();
    coverage_.hits += cache_.hits();
    coverage_.stale += cache_.stale();
    coverage_.refused += cache_.refused();
  }

 private:
  using Kind = NameModel::Kind;
  enum Op { kCreate, kRemove, kRename, kMakeContext, kRenameDir, kRemoveDir,
            kLink, kEditLink, kOpen };

  void build_forest() {
    auto& fs_a_host = dom_.add_host("fs-a");
    auto& fs_b_host = dom_.add_host("fs-b");
    const char* files_a[] = {"d0/f0", "d0/f1", "d0/s0/f0", "d1/f0",
                             "d1/s0/t0/f0", "d2/f0"};
    const char* files_b[] = {"e0/f0", "e0/g0/f0", "e1/f0"};
    for (const char* path : files_a) put(0, path);
    for (const char* path : files_b) put(1, path);
    (void)find(0, "d0/s1");  // an empty directory to remove
    pid_[0] = fs_a_host.spawn("fs-a",
                              [this](ipc::Process p) { return fs_[0].run(p); });
    pid_[1] = fs_b_host.spawn("fs-b",
                              [this](ipc::Process p) { return fs_[1].run(p); });
    model_.set_ctx(NameModel::kRootA, fs_[0].context_of(""));
    model_.set_ctx(NameModel::kRootB, fs_[1].context_of(""));
    put_link("la", NameModel::kRootB);
    put_link("lb", find(1, "e0"));
  }

  /// Model node of an existing `path` on `server`, creating directories.
  int find(int server, std::string_view path) {
    int cur = server == 0 ? NameModel::kRootA : NameModel::kRootB;
    std::size_t start = 0;
    while (start < path.size()) {
      const auto slash = path.find('/', start);
      const auto end = slash == std::string_view::npos ? path.size() : slash;
      const std::string part(path.substr(start, end - start));
      const auto it = model_.at(cur).entries.find(part);
      if (it != model_.at(cur).entries.end()) {
        cur = it->second;
      } else {
        cur = model_.add(cur, Kind::kDir, part);
        model_.set_ctx(cur, fs_[server].mkdirs(path.substr(0, end)));
      }
      start = end + 1;
    }
    return cur;
  }
  void put(int server, std::string_view path) {
    const auto slash = path.rfind('/');
    const int dir = find(server, path.substr(0, slash));
    const std::string bytes = "bytes of " + std::string(path) + " on " +
                              std::to_string(server);
    fs_[server].put_file(path, bytes);
    const int id = model_.add(dir, Kind::kFile,
                              std::string(path.substr(slash + 1)));
    model_.set_bytes(id, bytes);
  }
  void put_link(const std::string& name, int target) {
    fs_[0].put_link(name, {pid_[1], model_.at(target).ctx});
    int made = -1;
    (void)model_.create(NameModel::kRootA, name, Kind::kLink, target, &made);
  }

  template <typename T>
  T pick(const std::vector<T>& from) {
    return from[rng_() % from.size()];
  }
  std::string fresh() {
    return std::string("n").append(std::to_string(fresh_++));
  }

  /// A random open target: a name opened before (the name space may have
  /// moved since), a live file, a "dir/sub/../leaf" or mid-path
  /// "dir/sub/../sub2/leaf" walk, or a random leaf of a live directory.
  std::string open_name() {
    const auto r = rng_() % 10;
    if (r < 4 && !history_.empty()) return pick(history_);
    std::string name;
    const auto files = model_.reachable(Kind::kFile);
    auto dirs = model_.reachable(Kind::kDir);
    dirs.push_back(NameModel::kRootA);
    const int dir = pick(dirs);
    const std::string dir_name = model_.name_of(dir);
    const std::string prefix = dir_name.empty() ? "" : dir_name + "/";
    if (r < 7 && !files.empty()) {
      name = model_.name_of(pick(files));
    } else if (r < 9) {
      std::vector<std::string> subs;
      for (const auto& [entry, id] : model_.at(dir).entries) {
        if (model_.at(id).kind == Kind::kDir) subs.push_back(entry);
      }
      if (subs.empty()) {
        name = prefix + "f0";
      } else if (rng_() % 2 == 0) {
        name = prefix + pick(subs) + "/../f0";
      } else {
        const std::string up = pick(subs);
        name = prefix + up + "/../" + pick(subs) + "/f0";
      }
    } else if (rng_() % 2 == 0) {
      name = prefix + "f1";
    } else {
      name = prefix + "n" + std::to_string(rng_() % (fresh_ + 1));
    }
    history_.push_back(name);
    if (history_.size() > 48) history_.erase(history_.begin());
    return name;
  }

  Co<void> step(svc::Rt& rt) {
    const auto r = rng_() % 100;
    Op op = kOpen;
    if (r >= 40) op = kCreate;
    if (r >= 49) op = kRemove;
    if (r >= 56) op = kRename;
    if (r >= 63) op = kMakeContext;
    if (r >= 70) op = kRenameDir;
    if (r >= 77) op = kRemoveDir;
    if (r >= 83) op = kLink;
    if (r >= 90) op = kEditLink;
    if (op == kOpen) {
      const std::string name = open_name();
      co_await check_open(rt, name);
      co_return;
    }
    // The directory the op works in and the leaf it names.
    auto dirs = model_.reachable(Kind::kDir);
    dirs.push_back(NameModel::kRootA);
    int dir = pick(dirs);
    std::string leaf;
    if (op == kRenameDir || op == kRemoveDir) {
      std::vector<int> candidates;
      for (const int id : model_.reachable(Kind::kDir)) {
        if (op == kRenameDir || model_.at(id).entries.empty()) {
          candidates.push_back(id);
        }
      }
      if (candidates.empty()) co_return;
      const int victim = pick(candidates);
      dir = model_.at(victim).parent;
      leaf = model_.at(victim).name;
    } else if (op == kEditLink) {
      // Remove or rename one of A's root links: the entry every forwarded
      // walk went through.
      dir = NameModel::kRootA;
      std::vector<std::string> links;
      for (const auto& [entry, id] : model_.at(dir).entries) {
        if (model_.at(id).kind == Kind::kLink) links.push_back(entry);
      }
      if (links.empty()) co_return;
      leaf = pick(links);
    } else if (op == kRemove || op == kRename) {
      if (model_.at(dir).entries.empty()) co_return;
      std::vector<std::string> names;
      for (const auto& [entry, id] : model_.at(dir).entries) {
        names.push_back(entry);
      }
      leaf = pick(names);
    } else if (op == kLink) {
      dir = NameModel::kRootA;
      leaf = fresh();
    } else {
      leaf = rng_() % 8 == 0 ? "f0" : fresh();  // sometimes a clash
    }
    const std::string dir_name = model_.name_of(dir);
    if (dir != NameModel::kRootA && dir_name.empty()) co_return;
    const std::string name = dir_name.empty() ? leaf : dir_name + "/" + leaf;
    // Interpretation up to the leaf must agree with the model first.
    const NameModel::Walk walk = model_.walk(name, /*define=*/true);
    EXPECT_EQ(walk.code, ReplyCode::kOk) << name;
    EXPECT_EQ(walk.dir, dir) << name;
    int made = -1;
    ReplyCode expect = ReplyCode::kOk;
    ReplyCode got = ReplyCode::kOk;
    switch (op) {
      case kCreate:
        expect = model_.create(dir, leaf, Kind::kFile, -1, &made);
        got = co_await rt.create(name);
        break;
      case kMakeContext:
        expect = model_.create(dir, leaf, Kind::kDir, -1, &made);
        got = co_await rt.make_context(name);
        if (made >= 0) {
          model_.set_ctx(made,
                         fs_[model_.at(made).server].context_of(
                             model_.local_path(made)));
        }
        break;
      case kLink: {
        auto targets = model_.reachable(Kind::kDir);
        targets.push_back(NameModel::kRootB);
        std::erase_if(targets,
                      [this](int id) { return model_.at(id).server != 1; });
        const int target = pick(targets);
        expect = model_.create(dir, leaf, Kind::kLink, target, &made);
        const naming::ContextPair pair{pid_[1], model_.at(target).ctx};
        got = co_await rt.link(name, pair);
        break;
      }
      case kRemove:
      case kRemoveDir:
        expect = model_.remove(dir, leaf);
        got = co_await rt.remove(name);
        break;
      case kRename:
      case kRenameDir:
      case kEditLink: {
        if (op == kEditLink && rng_() % 2 == 0) {
          expect = model_.remove(dir, leaf);
          got = co_await rt.remove(name);
          break;
        }
        const std::string new_leaf = rng_() % 8 == 0 ? "f0" : fresh();
        expect = model_.rename(dir, leaf, new_leaf);
        got = co_await rt.rename(name, new_leaf);
        break;
      }
      case kOpen:
        break;
    }
    EXPECT_EQ(to_string(got), to_string(expect))
        << "op " << op << " on " << name;
    if (got == ReplyCode::kOk && expect == ReplyCode::kOk) {
      ++coverage_.ok_mutations[op];
    }
  }

  Co<void> check_open(svc::Rt& rt, const std::string& name) {
    ++coverage_.opens;
    const NameModel::Walk expect = model_.walk(name, /*define=*/false);
    auto opened = co_await rt.open_detailed(name, kOpenRead);
    const ReplyCode got = opened.ok() ? ReplyCode::kOk : opened.code();
    EXPECT_EQ(to_string(got), to_string(expect.code)) << "open " << name;
    if (!opened.ok()) co_return;
    svc::Rt::OpenedFile file = opened.take();
    if (expect.code == ReplyCode::kOk) {
      const auto& dir = model_.at(expect.dir);
      const naming::ContextPair where{pid_[dir.server], dir.ctx};
      EXPECT_TRUE(file.directory == where) << "open " << name;
      if (expect.node != expect.dir) {
        auto bytes = co_await file.file.read_all();
        EXPECT_TRUE(bytes.ok()) << "read " << name;
        if (bytes.ok()) {
          EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                                    bytes.value().data()),
                                bytes.value().size()),
                    model_.at(expect.node).bytes)
              << "read " << name;
        }
      }
    }
    EXPECT_EQ(co_await file.file.close(), ReplyCode::kOk);
  }

  ipc::Domain dom_{ipc::CalibrationParams::SunWorkstation3Mbit()};
  servers::FileServer fs_[2] = {
      servers::FileServer("fs-a", servers::DiskModel::kMemory, false),
      servers::FileServer("fs-b", servers::DiskModel::kMemory, false)};
  ipc::ProcessId pid_[2];
  NameModel model_;
  NameCache cache_;
  std::mt19937_64 rng_;
  Coverage& coverage_;
  std::vector<std::string> history_;
  std::uint64_t fresh_ = 0;
  int turn_ = 0;
  int done_ = 0;
  sim::WaitQueue turns_;
};

/// Run the matrix over the sweep seeds with a shared cache of
/// `cache_capacity` entries; returns what the sweep exercised.
MutationMatrix::Coverage run_mutation_matrix(std::size_t cache_capacity) {
  MutationMatrix::Coverage coverage;
  for (const auto seed : sweep_seeds()) {
    SCOPED_TRACE(repro(seed, "mutation/reopen matrix"));
    MutationMatrix matrix(seed, cache_capacity, coverage);
    matrix.run();
    if (::testing::Test::HasFailure()) break;  // one seed's report is enough
  }
  // The sweep must actually have exercised what it claims to check: every
  // mutation kind succeeded somewhere, cached opens hit, and context
  // mutations made some of them refuse.
  for (int op = 0; op < 8; ++op) {
    EXPECT_GE(coverage.ok_mutations[op], 1u) << "mutation kind " << op;
  }
  EXPECT_GE(coverage.opens, 100u);
  EXPECT_GE(coverage.hits, 1u);
  EXPECT_GE(coverage.stale, 1u);
  return coverage;
}

TEST(CachedOpen, ModelCheckedMutationReopenMatrix) {
  (void)run_mutation_matrix(64);
}

TEST(CachedOpen, ModelCheckedMutationReopenMatrixSmallCache) {
  // Four entries against the matrix's dozens of directories: admission
  // refusals and evictions interleave with every mutation kind, and the
  // replies must still match the model exactly.  Admission decides only
  // which bindings are kept, never what a reply says.
  const auto coverage = run_mutation_matrix(4);
  EXPECT_GE(coverage.refused, 1u);
}

// --- wire-level accounting --------------------------------------------------------

TEST(CachedOpen, WarmHitIsExactlyOneMessageTransaction) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    // Cold: full resolution through the prefix server, learns the binding.
    co_await open_expect(rt, "[alpha]usr/mann/naming.mss",
                         "Distributed name interpretation.");
    // Warm: the sibling open must be ONE direct transaction, no forwards.
    const auto before = fx.dom.stats();
    auto warm = co_await rt.open("[alpha]usr/mann/paper.mss", kOpenRead);
    const auto after = fx.dom.stats();
    EXPECT_EQ(after.messages_sent - before.messages_sent, 1u);
    EXPECT_EQ(after.forwards - before.forwards, 0u);
    EXPECT_TRUE(warm.ok());
    if (!warm.ok()) co_return;
    svc::File f = warm.take();
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stale(), 0u);
    rt.set_cache(nullptr);
  });
}

TEST(CachedOpen, WrongExpectedGenerationAnswersStaleContext) {
  // The wire contract itself (PROTOCOL.md 11): a request quoting a
  // generation the context does not have is answered kStaleContext — a
  // well-formed request (zero lint rejects), refused loudly.
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto req = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    msg::cs::set_expected_generation(req, 0xfffffffe);  // never allocated
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(req, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kStaleContext);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 0u);
}

#if V_CHECKS_ENABLED

TEST(CachedOpen, UnknownCsFlagBitsRejectedByLint) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    bad.raw()[msg::cs::kOffCsFlags] = std::byte{0x80};  // undefined bit
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(
      fx.dom.lint().first_dump().find("unknown CSname header flag bits"),
      std::string::npos)
      << fx.dom.lint().first_dump();
}

TEST(CachedOpen, GenerationBytesWithoutFlagRejectedByLint) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt /*rt*/) -> Co<void> {
    const std::string name = "tmp";
    auto bad = msg::cs::make_request(
        msg::kQueryName, naming::kDefaultContext,
        static_cast<std::uint16_t>(name.size()));
    bad.set_u32(msg::cs::kOffExpectedGen, 7);  // bytes set, flag clear
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name.data(), name.size()));
    const auto reply = co_await self.send(bad, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kBadArgs);
  });
  EXPECT_EQ(fx.dom.lint().counters().client_rejects, 1u);
  EXPECT_NE(fx.dom.lint().first_dump().find(
                "expected-generation bytes set without the flag"),
            std::string::npos)
      << fx.dom.lint().first_dump();
}

#endif  // V_CHECKS_ENABLED

// --- observability ----------------------------------------------------------------

#if V_TRACE_ENABLED

TEST(CachedOpen, MetricsContextServesNamecacheCounters) {
  VFixture fx;
  servers::MetricsServer metrics_srv;
  const auto metrics_pid = fx.ws1.spawn(
      "metrics", [&](ipc::Process p) { return metrics_srv.run(p); });
  fx.prefixes.define("metrics",
                     {.target = {metrics_pid, naming::kDefaultContext}});
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    // One miss, one hit, one stale refusal + fallback.
    co_await open_expect(rt, "usr/mann/naming.mss",
                         "Distributed name interpretation.");
    co_await open_expect(rt, "usr/mann/paper.mss", "ICDCS 1984.");
    EXPECT_EQ(co_await rt.create("usr/mann/churn.txt"), ReplyCode::kOk);
    co_await open_expect(rt, "usr/mann/naming.mss",
                         "Distributed name interpretation.");
    // Freeze the counters (detach the cache), then read them back through
    // the uniform name space, exactly as a remote monitor would.
    rt.set_cache(nullptr);
    const struct {
      const char* name;
      std::uint64_t expect;
    } counters[] = {
        {"[metrics]namecache/hits", cache.hits()},
        {"[metrics]namecache/misses", cache.misses()},
        {"[metrics]namecache/stale", cache.stale()},
        {"[metrics]namecache/fallbacks", cache.fallbacks()},
    };
    for (const auto& c : counters) {
      auto metric = co_await rt.open(c.name, kOpenRead);
      EXPECT_TRUE(metric.ok()) << c.name;
      if (!metric.ok()) continue;
      svc::File f = metric.take();
      auto bytes = co_await f.read_all();
      EXPECT_TRUE(bytes.ok()) << c.name;
      if (!bytes.ok()) continue;
      const std::string text(
          reinterpret_cast<const char*>(bytes.value().data()),
          bytes.value().size());
      EXPECT_EQ(std::strtoull(text.c_str(), nullptr, 10), c.expect)
          << c.name << " read \"" << text << "\"";
      (void)co_await f.close();
    }
    // And the registry snapshot agrees with the wire reads.
    const auto reg = fx.dom.metrics().value_text("namecache", "hits");
    EXPECT_TRUE(reg.has_value());
    if (reg.has_value()) {
      EXPECT_EQ(std::strtoull(reg->c_str(), nullptr, 10), cache.hits());
    }
  });
}

TEST(CachedOpen, WarmHitTraceShowsSingleHop) {
  VFixture fx;
  fx.dom.tracer().enable();
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    NameCache cache;
    rt.set_cache(&cache);
    co_await open_expect(rt, "[alpha]usr/mann/naming.mss",
                         "Distributed name interpretation.");
    co_await open_expect(rt, "[alpha]usr/mann/paper.mss", "ICDCS 1984.");
    EXPECT_EQ(cache.hits(), 1u);
    rt.set_cache(nullptr);
  });

  // Collect the open-request roots in emission order: the cold resolution
  // first, the warm hit last.
  const auto& spans = fx.dom.tracer().spans();
  std::vector<const obs::Span*> roots;
  for (const auto& s : spans) {
    if (s.parent == 0 && s.category == "send" && s.name == "send open") {
      roots.push_back(&s);
    }
  }
  ASSERT_EQ(roots.size(), 2u);
  auto hops = [&](const obs::Span& root) {
    std::vector<const obs::Span*> out;
    for (const auto& s : spans) {
      if (s.trace_id == root.trace_id && s.category == "hop") {
        out.push_back(&s);
      }
    }
    return out;
  };
  // Cold: prefix server + file server — at least two server boundaries.
  EXPECT_GE(hops(*roots.front()).size(), 2u);
  // Warm: the whole resolution is ONE hop span on the final server.
  const auto warm_hops = hops(*roots.back());
  ASSERT_EQ(warm_hops.size(), 1u);
  EXPECT_EQ(warm_hops[0]->parent, roots.back()->id);
}

#endif  // V_TRACE_ENABLED

}  // namespace
}  // namespace v
