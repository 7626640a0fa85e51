// Follower read-scaling regression harness (ctest label `perf`, Release CI
// leg) — the replication payoff the log-shipping subsystem exists to buy:
// a follower is extra read capacity, not just a warm spare.
//
// Topology: a leader database, a sync ReplShipper, and an in-process
// Replica attached over real TCP and fully caught up. Both serve the same
// table. The experiment measures aggregate read-only throughput twice with
// the same total thread count:
//
//   leader-only : all reader threads hammer the leader database;
//   split       : half the readers move to the follower's snapshot.
//
// On any box the split must not collapse (the follower read path —
// replayed_ts snapshot visibility over mirrored, replayed state — must not
// serialize against the replication machinery). The generous 0.8x margin
// catches a collapse, not enforces a speedup, same contract as
// scalability_smoke_test; the two configurations are measured in
// alternation and compared by median to survive noisy shared runners.
//
// Also asserted, because throughput without correctness is vacuous: with
// the leader quiescent the follower's rows are value-identical to the
// leader's.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/harness.h"
#include "common/random.h"
#include "core/database.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "workload/homogeneous.h"

namespace mvstore {
namespace {

constexpr uint64_t kRows = 4096;
constexpr uint32_t kReadsPerTxn = 10;
constexpr double kSecondsPerPoint = 1.0;
constexpr double kMargin = 0.8;
constexpr double kSharedCoreMargin = 0.5;
constexpr int kRepeats = 3;
constexpr uint32_t kThreads = 4;

void DefineRowTable(Database& db) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(workload::Row24);
  def.indexes.push_back(IndexDef{&workload::Row24Key, kRows, /*unique=*/true});
  db.CreateTable(std::move(def));
}

DatabaseOptions MakeReplOptions(const std::string& dir) {
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  opts.log_mode = LogMode::kAsync;  // loading 4096 rows; fsync not the point
  opts.log_path = dir + "/wal";
  opts.log_segment_bytes = 1 << 20;
  opts.checkpoint_path = dir + "/ckpt";
  return opts;
}

/// Aggregate read-only tps over `kThreads` workers; `pick` maps a worker id
/// to the database it reads.
double ReadTps(const std::function<Database&(uint32_t)>& pick) {
  bench::RunResult r = bench::RunFixedDuration(
      kThreads, kSecondsPerPoint,
      [&](uint32_t tid, std::atomic<bool>& stop,
          bench::WorkerCounters& counters) {
        Database& db = pick(tid);
        Random rng(0xF0110 + tid);
        while (!stop.load(std::memory_order_relaxed)) {
          Status s = workload::RunReadOnlyTxn(db, 0, rng, kRows, kReadsPerTxn,
                                              IsolationLevel::kReadCommitted);
          if (s.ok()) {
            ++counters.committed;
          } else {
            ++counters.aborted;
          }
        }
      });
  return r.tps();
}

TEST(ReplReadScalingTest, FollowerAddsReadCapacityWithoutCollapse) {
#if !defined(__linux__)
  GTEST_SKIP() << "replication is Linux-only";
#else
  const bool small_box = std::thread::hardware_concurrency() < 4;
  if (small_box && std::getenv("MVSTORE_PERF_FORCE") == nullptr) {
    GTEST_SKIP() << "needs >= 4 hardware threads";
  }
  const double margin = small_box ? kSharedCoreMargin : kMargin;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mvstore_repl_read_scaling_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/leader");
  std::filesystem::create_directories(dir + "/follower");

  Status st;
  auto leader = Database::Open(MakeReplOptions(dir + "/leader"),
                               DefineRowTable, &st);
  ASSERT_NE(leader, nullptr) << st.ToString();
  for (uint64_t k = 0; k < kRows; ++k) {
    Txn* txn = leader->Begin(IsolationLevel::kReadCommitted);
    workload::Row24 row{k, k * 10, 0};
    ASSERT_TRUE(leader->Insert(txn, 0, &row).ok());
    ASSERT_TRUE(leader->Commit(txn).ok());
  }

  ReplShipper shipper(*leader);
  ASSERT_TRUE(shipper.Start().ok());

  ReplicaOptions ropts;
  ropts.db = MakeReplOptions(dir + "/follower");
  ropts.define_schema = DefineRowTable;
  ropts.leader_port = shipper.port();
  ropts.reconnect_ms = 20;
  auto replica = Replica::Open(ropts, &st);
  ASSERT_NE(replica, nullptr) << st.ToString();

  // Fully caught up: the follower's watermark reaches the leader's clock.
  const Timestamp leader_ts = leader->LastCommitTimestamp();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (replica->replayed_ts() < leader_ts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(replica->replayed_ts(), leader_ts) << "follower never caught up";

  // Correctness before throughput: the follower's snapshot is
  // value-identical to the quiescent leader.
  {
    Database& fdb = replica->db();
    Txn* txn = fdb.Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
    for (uint64_t k = 0; k < kRows; k += 97) {
      workload::Row24 row{};
      ASSERT_TRUE(fdb.Read(txn, 0, 0, k, &row).ok()) << "key " << k;
      ASSERT_EQ(row.value, k * 10) << "key " << k;
    }
    ASSERT_TRUE(fdb.Commit(txn).ok());
  }

  // Warm both sides, then alternate the two configurations and compare
  // medians.
  (void)ReadTps([&](uint32_t tid) -> Database& {
    return tid % 2 == 0 ? *leader : replica->db();
  });
  double leader_only[kRepeats], split[kRepeats];
  for (int rep = 0; rep < kRepeats; ++rep) {
    leader_only[rep] = ReadTps([&](uint32_t) -> Database& { return *leader; });
    split[rep] = ReadTps([&](uint32_t tid) -> Database& {
      return tid % 2 == 0 ? *leader : replica->db();
    });
  }
  std::sort(leader_only, leader_only + kRepeats);
  std::sort(split, split + kRepeats);
  const double tps_leader = leader_only[kRepeats / 2];
  const double tps_split = split[kRepeats / 2];
  RecordProperty("tps_leader_only", static_cast<int64_t>(tps_leader));
  RecordProperty("tps_split", static_cast<int64_t>(tps_split));
  EXPECT_GE(tps_split, margin * tps_leader)
      << "moving half the readers to the follower collapsed throughput: "
      << tps_leader << " tps leader-only vs " << tps_split << " tps split";

  replica->Stop();
  replica.reset();
  shipper.Stop();
  leader.reset();
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace mvstore
