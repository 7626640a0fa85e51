#include "cc/deadlock.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mvstore {

namespace {

/// Iterative Tarjan SCC over a small adjacency-list graph.
/// Returns the components (each a list of node indices) in reverse
/// topological order; only components of size > 1 can be deadlocks here
/// (a transaction never waits on itself).
class TarjanScc {
 public:
  /// `n` bounds the live nodes: `adjacency` may be an oversized scratch
  /// buffer whose entries past `n` are stale.
  TarjanScc(const std::vector<std::vector<uint32_t>>& adjacency, uint32_t n)
      : adjacency_(adjacency),
        n_(n),
        index_(n_, kUndefined),
        lowlink_(n_, 0),
        on_stack_(n_, 0) {}

  std::vector<std::vector<uint32_t>> Run() {
    for (uint32_t v = 0; v < n_; ++v) {
      if (index_[v] == kUndefined) StrongConnect(v);
    }
    return components_;
  }

 private:
  static constexpr uint32_t kUndefined = ~uint32_t{0};

  void StrongConnect(uint32_t root) {
    // Explicit DFS stack: (node, next-edge-cursor).
    std::vector<std::pair<uint32_t, size_t>> dfs;
    dfs.emplace_back(root, 0);
    index_[root] = lowlink_[root] = next_index_++;
    stack_.push_back(root);
    on_stack_[root] = 1;

    while (!dfs.empty()) {
      auto& [v, cursor] = dfs.back();
      if (cursor < adjacency_[v].size()) {
        uint32_t w = adjacency_[v][cursor++];
        if (index_[w] == kUndefined) {
          index_[w] = lowlink_[w] = next_index_++;
          stack_.push_back(w);
          on_stack_[w] = 1;
          dfs.emplace_back(w, 0);
        } else if (on_stack_[w]) {
          lowlink_[v] = std::min(lowlink_[v], index_[w]);
        }
        continue;
      }
      // v is finished.
      if (lowlink_[v] == index_[v]) {
        std::vector<uint32_t> component;
        while (true) {
          uint32_t w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = 0;
          component.push_back(w);
          if (w == v) break;
        }
        components_.push_back(std::move(component));
      }
      uint32_t finished = v;
      dfs.pop_back();
      if (!dfs.empty()) {
        uint32_t parent = dfs.back().first;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[finished]);
      }
    }
  }

  const std::vector<std::vector<uint32_t>>& adjacency_;
  const uint32_t n_;
  std::vector<uint32_t> index_;
  std::vector<uint32_t> lowlink_;
  std::vector<uint8_t> on_stack_;
  std::vector<uint32_t> stack_;
  std::vector<std::vector<uint32_t>> components_;
  uint32_t next_index_ = 0;
};

}  // namespace

void DeadlockDetector::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      RunOnce();
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us_));
    }
  });
}

void DeadlockDetector::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

uint32_t DeadlockDetector::RunOnce() {
  MutexLock pass_lock(pass_mutex_);
  EpochGuard guard(epoch_);

  // Step 1: nodes = blocked transactions (Section 4.4 step 1). The scratch
  // vectors keep their capacity across passes, so the common every-few-
  // hundred-microseconds scan allocates nothing.
  std::vector<Transaction*>& nodes = nodes_scratch_;
  nodes.clear();
  std::unordered_map<TxnId, uint32_t>& node_of = node_of_scratch_;
  node_of.clear();
  txn_table_.ForEach([&](Transaction* t) {
    if (t->blocked.load(std::memory_order_acquire)) {
      node_of.emplace(t->id, static_cast<uint32_t>(nodes.size()));
      nodes.push_back(t);
    }
  });
  if (nodes.size() < 2) return 0;

  std::vector<std::vector<uint32_t>>& adjacency = adjacency_scratch_;
  if (adjacency.size() < nodes.size()) adjacency.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) adjacency[i].clear();

  // Step 2: explicit edges. T2 in T1's WaitingTxnList waits for T1:
  // edge T2 -> T1.
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    Transaction* t1 = nodes[i];
    std::vector<TxnId>& waiting = waiting_scratch_;
    {
      SpinLatchGuard latch(t1->waiting_latch);
      waiting.assign(t1->waiting_txn_list.begin(), t1->waiting_txn_list.end());
    }
    for (TxnId t2_id : waiting) {
      auto it = node_of.find(t2_id);
      if (it != node_of.end()) adjacency[it->second].push_back(i);
    }
  }

  // Step 3: implicit edges. T1 holds a read lock on version V; V is
  // write-locked by T2: T2 waits for T1's release, edge T2 -> T1.
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    Transaction* t1 = nodes[i];
    std::vector<Version*>& locked_versions = locked_scratch_;
    locked_versions.clear();
    {
      SpinLatchGuard latch(t1->read_set_latch);
      for (const ReadSetEntry& e : t1->read_set) {
        if (e.read_locked) locked_versions.push_back(e.version);
      }
    }
    for (Version* v : locked_versions) {
      uint64_t end_word = v->end.load(std::memory_order_acquire);
      if (!lockword::IsLockWord(end_word)) continue;
      TxnId writer = lockword::WriterOf(end_word);
      if (writer == lockword::kNoWriter || writer == t1->id) continue;
      auto it = node_of.find(writer);
      if (it != node_of.end()) adjacency[it->second].push_back(i);
    }
  }

  // Find cycles.
  auto components =
      TarjanScc(adjacency, static_cast<uint32_t>(nodes.size())).Run();
  uint32_t victims = 0;
  for (const auto& component : components) {
    if (component.size() < 2) continue;
    // Re-verify: the graph may be stale; real deadlocks cannot dissolve, but
    // members that already unblocked indicate a false positive.
    bool all_blocked = true;
    for (uint32_t idx : component) {
      if (!nodes[idx]->blocked.load(std::memory_order_acquire)) {
        all_blocked = false;
        break;
      }
    }
    if (!all_blocked) continue;
    // Abort the youngest member (largest begin timestamp, then larger ID;
    // IDs name table slots, not ages): older transactions did more work.
    auto age = [](const Transaction* t) {
      return std::pair(t->begin_ts.load(std::memory_order_acquire), t->id);
    };
    Transaction* victim = nodes[component[0]];
    for (uint32_t idx : component) {
      if (age(nodes[idx]) > age(victim)) victim = nodes[idx];
    }
    victim->kill_reason.store(AbortReason::kDeadlock, std::memory_order_relaxed);
    victim->abort_now.store(true, std::memory_order_release);
    victim->NotifyEvent();
    stats_.Add(Stat::kDeadlocksDetected);
    ++victims;
  }
  return victims;
}

}  // namespace mvstore
