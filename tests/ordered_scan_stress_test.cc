// Range scans under GC churn: writers churn versions through ordered-index
// nodes while an insert/delete cycler drains and recreates nodes, and
// concurrent readers iterate the skip list lock-free. If a node or version
// slot were recycled before its epoch is safe, a reader would observe a
// torn payload (checksums), an out-of-order key, or a row outside its
// requested range. Companion to tests/slab_recycle_test.cc, which covers
// the same invariant for hash-bucket reads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "cc/mv_engine.h"
#include "common/random.h"
#include "core/database.h"

namespace mvstore {
namespace {

struct CheckedRow {
  uint64_t key;    // primary
  uint64_t group;  // ordered secondary
  int64_t value;
  uint64_t checksum;
  static uint64_t Checksum(uint64_t k, uint64_t g, int64_t v) {
    return k * 31 + g * 7 + static_cast<uint64_t>(v);
  }
};
uint64_t CheckedKey(const void* p) {
  return static_cast<const CheckedRow*>(p)->key;
}
uint64_t CheckedGroup(const void* p) {
  return static_cast<const CheckedRow*>(p)->group;
}

class OrderedScanChurnTest : public ::testing::TestWithParam<bool> {};

TEST_P(OrderedScanChurnTest, IteratorsSurviveNodeRetirementChurn) {
  const bool use_slab = GetParam();
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  opts.log_mode = LogMode::kDisabled;
  opts.gc_interval_us = 100;  // aggressive reclamation
  opts.use_slab_allocator = use_slab;
  Database db(opts);

  // Stable band: keys/groups 0..kStable-1, updated in balanced pairs so a
  // snapshot scan's value total is invariant. Churn band: keys/groups
  // kChurnBase.., inserted and deleted in cycles so their skip-list nodes
  // drain and retire while scans are in flight.
  constexpr uint64_t kStable = 48;
  constexpr uint64_t kChurn = 32;
  constexpr uint64_t kChurnBase = 1000;
  constexpr int64_t kInitial = 100;

  TableDef def;
  def.name = "churn";
  def.payload_size = sizeof(CheckedRow);
  def.indexes.push_back(IndexDef{&CheckedKey, 256, /*unique=*/true});
  IndexDef ordered{&CheckedGroup, 256, /*unique=*/false};
  ordered.ordered = true;
  def.indexes.push_back(ordered);
  TableId table = db.CreateTable(def);

  auto insert_row = [&](uint64_t key, uint64_t group, int64_t value) {
    return db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
      CheckedRow row{key, group, value,
                     CheckedRow::Checksum(key, group, value)};
      return db.Insert(t, table, &row);
    });
  };
  for (uint64_t k = 0; k < kStable; ++k) {
    ASSERT_TRUE(insert_row(k, k, kInitial).ok());
  }

  std::atomic<bool> stop{false};
  // Split by invariant so a failure names the broken one: torn payload,
  // key ordering, range bounds, or snapshot consistency.
  std::atomic<uint64_t> checksum_bad{0};
  std::atomic<uint64_t> order_bad{0};
  std::atomic<uint64_t> range_bad{0};
  std::atomic<uint64_t> snapshot_bad{0};
  // First inconsistent snapshot, for the failure message: which stable
  // groups were seen (bitmask) and the totals observed. `bad_hash_found`
  // records whether a missing row was reachable through the hash index in
  // the same transaction (discriminates a skipped ordered chain from a
  // visibility/GC loss).
  std::atomic<uint64_t> bad_mask{0};
  std::atomic<int64_t> bad_total{0};
  std::atomic<uint64_t> bad_rows{0};
  std::atomic<int> bad_hash_found{-1};
  // Same-transaction cross-checks of the first bad scan: a second ordered
  // scan and a hash-index point-read sum, both at the same read time.
  std::atomic<int64_t> bad_rescan_total{-1};
  std::atomic<int64_t> bad_hash_total{-1};
  std::mutex bad_rows_mu;
  std::vector<int64_t> bad_first(kStable, INT64_MIN);
  std::vector<int64_t> bad_second(kStable, INT64_MIN);
  std::atomic<uint64_t> scans_done{0};
  std::atomic<uint64_t> node_cycles{0};

  std::vector<std::thread> workers;

  // Value churn: balanced transfers inside the stable band.
  workers.emplace_back([&] {
    Random rng(0xABCD);
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t a = rng.Uniform(kStable);
      uint64_t b = (a + 1) % kStable;
      db.RunTransaction(
          IsolationLevel::kReadCommitted,
          [&](Txn* t) {
            Status s = db.Update(t, table, 0, a, [](void* p) {
              auto* row = static_cast<CheckedRow*>(p);
              row->value -= 5;
              row->checksum =
                  CheckedRow::Checksum(row->key, row->group, row->value);
            });
            if (!s.ok()) return s;
            return db.Update(t, table, 0, b, [](void* p) {
              auto* row = static_cast<CheckedRow*>(p);
              row->value += 5;
              row->checksum =
                  CheckedRow::Checksum(row->key, row->group, row->value);
            });
          });
    }
  });

  // Node churn: cycle the churn band in and out so ordered-index nodes
  // drain (GC unlinks the last version) and get epoch-retired mid-scan.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t i = 0; i < kChurn; ++i) {
        insert_row(kChurnBase + i, kChurnBase + i, 1);
      }
      for (uint64_t i = 0; i < kChurn; ++i) {
        db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
          return db.Delete(t, table, 0, kChurnBase + i);
        });
      }
      node_cycles.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Readers: full-range ordered scans validating checksum, ordering and
  // bounds; plus a snapshot-consistency check over the stable band.
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&, r] {
      Random rng(0xF00D + r);
      std::vector<int64_t> vals(kStable);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t last_group = 0;
        int64_t stable_total = 0;
        uint64_t stable_rows = 0;
        uint64_t stable_mask = 0;
        bool ok_scan = true;
        Status s = db.RunTransaction(IsolationLevel::kSnapshot, [&](Txn* t) {
          last_group = 0;
          stable_total = 0;
          stable_rows = 0;
          stable_mask = 0;
          ok_scan = true;
          Status scan_status = db.ScanRange(
              t, table, 1, 0, kChurnBase + kChurn, nullptr,
              [&](const void* p) {
                const auto* row = static_cast<const CheckedRow*>(p);
                if (row->checksum !=
                    CheckedRow::Checksum(row->key, row->group, row->value)) {
                  checksum_bad.fetch_add(1, std::memory_order_relaxed);
                  ok_scan = false;
                  return false;
                }
                if (row->group < last_group) {
                  order_bad.fetch_add(1, std::memory_order_relaxed);
                  ok_scan = false;
                  return false;
                }
                if (row->group > kChurnBase + kChurn) {
                  range_bad.fetch_add(1, std::memory_order_relaxed);
                  ok_scan = false;
                  return false;
                }
                last_group = row->group;
                if (row->group < kStable) {
                  stable_total += row->value;
                  ++stable_rows;
                  stable_mask |= uint64_t{1} << row->group;
                  vals[row->group] = row->value;
                }
                return true;
              });
          // A stable row missing from the ordered scan: probe it through
          // the primary hash index at the same read time before committing.
          if (scan_status.ok() && ok_scan && stable_rows != kStable) {
            uint64_t missing = 0;
            while (missing < kStable &&
                   (stable_mask >> missing & 1) != 0) {
              ++missing;
            }
            CheckedRow out;
            Status rs = db.Read(t, table, 0, missing, &out);
            bad_hash_found.store(rs.ok() ? 1 : 0, std::memory_order_relaxed);
          }
          // Inconsistent total with every row present: rescan and re-sum
          // through the hash index inside the same transaction. Whether
          // these agree with the first pass tells racing-scan apart from
          // wrong-visibility-at-fixed-read-time.
          if (scan_status.ok() && ok_scan && stable_rows == kStable &&
              stable_total != static_cast<int64_t>(kStable) * kInitial) {
            int64_t again = 0;
            std::vector<int64_t> vals2(kStable, INT64_MIN);
            db.ScanRange(t, table, 1, 0, kStable - 1, nullptr,
                         [&](const void* p) {
                           const auto* row = static_cast<const CheckedRow*>(p);
                           again += row->value;
                           if (row->group < kStable) {
                             vals2[row->group] = row->value;
                           }
                           return true;
                         });
            bad_rescan_total.store(again, std::memory_order_relaxed);
            {
              std::lock_guard<std::mutex> lk(bad_rows_mu);
              bad_first = vals;
              bad_second = vals2;
            }
            int64_t hsum = 0;
            for (uint64_t k = 0; k < kStable; ++k) {
              CheckedRow out;
              if (db.Read(t, table, 0, k, &out).ok()) hsum += out.value;
            }
            bad_hash_total.store(hsum, std::memory_order_relaxed);
          }
          return scan_status;
        });
        if (s.ok()) {
          if (ok_scan &&
              (stable_rows != kStable ||
               stable_total != static_cast<int64_t>(kStable) * kInitial)) {
            if (snapshot_bad.fetch_add(1, std::memory_order_relaxed) == 0) {
              bad_mask.store(stable_mask, std::memory_order_relaxed);
              bad_total.store(stable_total, std::memory_order_relaxed);
              bad_rows.store(stable_rows, std::memory_order_relaxed);
            }
          }
          scans_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_EQ(checksum_bad.load(), 0u);
  EXPECT_EQ(order_bad.load(), 0u);
  EXPECT_EQ(range_bad.load(), 0u);
  EXPECT_EQ(snapshot_bad.load(), 0u)
      << "first bad scan: rows=" << bad_rows.load()
      << " total=" << bad_total.load() << " hash_found="
      << bad_hash_found.load() << " rescan_total=" << bad_rescan_total.load()
      << " hash_total=" << bad_hash_total.load() << " mask=" << std::hex
      << bad_mask.load() << " (expected mask " << ((uint64_t{1} << 48) - 1)
      << ")" << std::dec << [&] {
           std::string diffs;
           std::lock_guard<std::mutex> lk(bad_rows_mu);
           for (uint64_t k = 0; k < kStable; ++k) {
             if (bad_first[k] != bad_second[k]) {
               diffs += " row" + std::to_string(k) + ":" +
                        std::to_string(bad_first[k]) + "->" +
                        std::to_string(bad_second[k]);
             }
           }
           return diffs.empty() ? std::string(" (no per-row diffs)") : diffs;
         }();
  EXPECT_GT(scans_done.load(), 0u);
  EXPECT_GT(node_cycles.load(), 0u);
  EXPECT_GT(db.stats().Get(Stat::kVersionsCollected), 0u);

  // Drain everything; the churn band must be gone from the index and the
  // stable band fully intact and ordered.
  db.mv_engine()->gc().RunOnce();
  db.substrate().epoch().TryAdvanceAndReclaim();
  std::vector<uint64_t> groups;
  ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
                  groups.clear();
                  return db.ScanRange(t, table, 1, 0, kChurnBase + kChurn,
                                      nullptr, [&](const void* p) {
                                        groups.push_back(CheckedGroup(p));
                                        return true;
                                      });
                }).ok());
  ASSERT_EQ(groups.size(), kStable);
  for (uint64_t k = 0; k < kStable; ++k) EXPECT_EQ(groups[k], k);

  // The drained churn nodes must actually have left the skip list.
  OrderedIndex* index = db.substrate().table(table).ordered_index(1);
  ASSERT_NE(index, nullptr);
  EXPECT_LE(index->CountNodes(), kStable + kChurn);
}

INSTANTIATE_TEST_SUITE_P(SlabAndHeap, OrderedScanChurnTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "slab" : "heap";
                         });

}  // namespace
}  // namespace mvstore
