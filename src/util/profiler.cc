#include "util/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/json.h"

namespace ftms {

namespace {

// One call tree per thread. States are heap-allocated, registered in a
// global list and never freed: a snapshot taken after a worker thread
// exits must still see its data.
struct ThreadState {
  Profiler::Node root{"", nullptr, {}, 0, 0};
  Profiler::Node* current = &root;
};

// Guards tree structure (child creation), the thread-state registry and
// the persistent global tree. Counts inside a node are only written by
// the owning thread; folds and snapshots run at serial sync points.
std::mutex& GlobalMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<ThreadState*>& ThreadStates() {
  static std::vector<ThreadState*>* states =
      new std::vector<ThreadState*>();
  return *states;
}

// The persistent tree that FoldAtSyncPoint() accumulates into; keyed by
// scope name at every level, children kept sorted by name.
Profiler::MergedNode& GlobalTree() {
  static Profiler::MergedNode* tree = new Profiler::MergedNode();
  return *tree;
}

ThreadState& State() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    state = new ThreadState();  // leaked: outlives the thread
    std::lock_guard<std::mutex> lock(GlobalMu());
    ThreadStates().push_back(state);
  }
  return *state;
}

Profiler::MergedNode* ChildByName(Profiler::MergedNode& parent,
                                  const char* name) {
  const auto it = std::lower_bound(
      parent.children.begin(), parent.children.end(), name,
      [](const Profiler::MergedNode& n, const char* key) {
        return n.name < key;
      });
  if (it != parent.children.end() && it->name == name) return &*it;
  Profiler::MergedNode node;
  node.name = name;
  return &*parent.children.insert(it, std::move(node));
}

// Adds `src`'s counts into `dst` (matching children by name); when
// `consume` is set the source counts are zeroed so the next fold does not
// double-count. Structure is kept either way — nodes are allocation-free
// on revisit.
void MergeInto(Profiler::MergedNode& dst, Profiler::Node& src,
               bool consume) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  if (consume) {
    src.count = 0;
    src.total_ns = 0;
  }
  for (const auto& child : src.children) {
    MergeInto(*ChildByName(dst, child->name), *child, consume);
  }
}

void MergeMerged(Profiler::MergedNode& dst,
                 const Profiler::MergedNode& src) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& child : src.children) {
    MergeMerged(*ChildByName(dst, child.name.c_str()), child);
  }
}

void AppendNodeJson(std::string* out, const Profiler::MergedNode& node) {
  *out += "{\"name\": ";
  AppendJsonString(out, node.name);
  *out += ", \"count\": ";
  AppendJsonNumber(out, static_cast<double>(node.count), 6);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(node.total_ns) / 1000.0);
  *out += ", \"wall_us\": ";
  *out += buf;
  *out += ", \"children\": [";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ", ";
    AppendNodeJson(out, node.children[i]);
  }
  *out += "]}";
}

int64_t SumCountsByName(const Profiler::MergedNode& node,
                        const std::string& name) {
  int64_t total = node.name == name ? node.count : 0;
  for (const auto& child : node.children) {
    total += SumCountsByName(child, name);
  }
  return total;
}

}  // namespace

std::atomic<int> Profiler::enabled_state_{-1};

bool Profiler::ResolveEnabledFromEnv() {
  const char* env = std::getenv("FTMS_PROF");
  const bool on =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  enabled_state_.store(on ? 1 : 0, std::memory_order_release);
  return on;
}

void Profiler::SetGlobalEnabled(bool enabled) {
  enabled_state_.store(enabled ? 1 : 0, std::memory_order_release);
}

Profiler::Node* Profiler::Enter(const char* name) {
  ThreadState& state = State();
  Node* current = state.current;
  for (const auto& child : current->children) {
    // Scope names are literals, so pointer equality is the common case;
    // fall back to strcmp for identical literals from different TUs.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      ++child->count;
      state.current = child.get();
      return child.get();
    }
  }
  // First visit of this path: create the child under the structure lock
  // so a concurrent snapshot never walks a reallocating vector.
  std::lock_guard<std::mutex> lock(GlobalMu());
  auto node = std::make_unique<Node>();
  node->name = name;
  node->parent = current;
  node->count = 1;
  current->children.push_back(std::move(node));
  state.current = current->children.back().get();
  return state.current;
}

void Profiler::Exit(Node* node, int64_t elapsed_ns) {
  node->total_ns += elapsed_ns;
  State().current = node->parent;
}

void Profiler::FoldAtSyncPoint() {
  if (!GlobalEnabled()) return;
  std::lock_guard<std::mutex> lock(GlobalMu());
  for (ThreadState* state : ThreadStates()) {
    MergeInto(GlobalTree(), state->root, /*consume=*/true);
  }
}

Profiler::MergedNode Profiler::MergedTree() {
  std::lock_guard<std::mutex> lock(GlobalMu());
  MergedNode merged = GlobalTree();  // copy
  for (ThreadState* state : ThreadStates()) {
    MergeInto(merged, state->root, /*consume=*/false);
  }
  merged.name = "";
  return merged;
}

int64_t Profiler::CountOf(const std::string& name) {
  return SumCountsByName(MergedTree(), name);
}

std::string Profiler::SnapshotJson() {
  const MergedNode merged = MergedTree();
  std::string out = "{\"schema\": 1, \"nodes\": [";
  for (size_t i = 0; i < merged.children.size(); ++i) {
    if (i > 0) out += ", ";
    AppendNodeJson(&out, merged.children[i]);
  }
  out += "]}";
  return out;
}

Status Profiler::WriteJson(const std::string& path) {
  return WriteTextFile(path, SnapshotJson() + "\n");
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(GlobalMu());
  GlobalTree() = MergedNode();
  for (ThreadState* state : ThreadStates()) {
    state->root.children.clear();
    state->root.count = 0;
    state->root.total_ns = 0;
    state->current = &state->root;
  }
}

}  // namespace ftms
