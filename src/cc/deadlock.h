// Wait-for-graph deadlock detection for MV/L (paper Section 4.4).
//
// Nodes: transactions that finished normal processing and are blocked on
// wait-for dependencies. Edges (T2 -> T1 means T2 waits for T1):
//   * explicit, from bucket locks: each T2 in T1's WaitingTxnList;
//   * implicit, from read locks: T1 read-locked a version write-locked by
//     T2, so T2 waits for T1's release.
// Cycles are found with Tarjan's strongly-connected-components algorithm;
// candidate deadlocks are re-verified (the graph is built while processing
// continues, so it can be imprecise) and the youngest member (largest begin
// timestamp) aborts.
#pragma once

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "txn/txn_table.h"
#include "util/epoch.h"

namespace mvstore {

class DeadlockDetector {
 public:
  DeadlockDetector(TxnTable& txn_table, EpochManager& epoch,
                   StatsCollector& stats, uint32_t interval_us)
      : txn_table_(txn_table),
        epoch_(epoch),
        stats_(stats),
        interval_us_(interval_us) {}

  ~DeadlockDetector() { Stop(); }

  void Start();
  void Stop();

  /// One detection pass. Returns the number of victims aborted.
  /// Exposed for tests; thread-safe against the background thread.
  uint32_t RunOnce();

 private:
  TxnTable& txn_table_;
  EpochManager& epoch_;
  StatsCollector& stats_;
  const uint32_t interval_us_;

  /// Serializes passes (tests may call RunOnce concurrently with the
  /// background thread) and guards the scratch vectors below, which are
  /// reused so the periodic scan is allocation-free in steady state.
  Mutex pass_mutex_;
  std::vector<Transaction*> nodes_scratch_ GUARDED_BY(pass_mutex_);
  std::vector<TxnId> waiting_scratch_ GUARDED_BY(pass_mutex_);
  std::vector<Version*> locked_scratch_ GUARDED_BY(pass_mutex_);
  std::unordered_map<TxnId, uint32_t> node_of_scratch_
      GUARDED_BY(pass_mutex_);
  /// Only the first nodes.size() entries are live each pass; entries are
  /// cleared, not destroyed, so inner capacities survive too.
  std::vector<std::vector<uint32_t>> adjacency_scratch_
      GUARDED_BY(pass_mutex_);

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace mvstore
