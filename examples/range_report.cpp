// Ordered-index range scans: the workload class the paper's hash-only
// engines cannot serve.
//
// An order book keyed by order id carries an ordered secondary index on the
// order amount. The example runs three mini-scenarios per scheme:
//
//   1. a consistent "report": sum all orders with amount in [lo, hi] while
//      writers keep booking — the MV schemes read a stable snapshot;
//   2. a serializable scan racing a conflicting insert — someone must
//      abort (MV: the scanner at commit; 1V: the inserter times out);
//   3. an insert outside the scanned range — nobody aborts.
//
//   $ ./range_report
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "core/database.h"

using namespace mvstore;

namespace {

struct Order {
  uint64_t id;
  uint64_t amount;
};
uint64_t OrderId(const void* p) { return static_cast<const Order*>(p)->id; }
uint64_t OrderAmount(const void* p) {
  return static_cast<const Order*>(p)->amount;
}

constexpr uint64_t kOrders = 10000;

TableId CreateAndLoad(Database& db) {
  TableDef def;
  def.name = "orders";
  def.payload_size = sizeof(Order);
  def.indexes.push_back(IndexDef{&OrderId, kOrders, /*unique=*/true});
  IndexDef by_amount{&OrderAmount, kOrders, /*unique=*/false};
  by_amount.ordered = true;
  def.indexes.push_back(by_amount);
  TableId table = db.CreateTable(def);
  Random rng(42);
  for (uint64_t id = 0; id < kOrders; ++id) {
    Order order{id, rng.Uniform(100000)};
    db.RunTransaction(IsolationLevel::kReadCommitted,
                      [&](Txn* t) { return db.Insert(t, table, &order); });
  }
  return table;
}

void RunScheme(Scheme scheme) {
  DatabaseOptions options;
  options.scheme = scheme;
  Database db(options);
  TableId table = CreateAndLoad(db);

  // 1: report under write pressure.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(7);
    uint64_t next_id = kOrders;
    while (!stop.load(std::memory_order_relaxed)) {
      Order order{next_id++, rng.Uniform(100000)};
      db.RunTransaction(IsolationLevel::kReadCommitted,
                        [&](Txn* t) { return db.Insert(t, table, &order); });
    }
  });
  uint64_t count = 0, total = 0;
  Status report = db.RunTransaction(IsolationLevel::kSnapshot, [&](Txn* t) {
    count = total = 0;
    return db.ScanRange(t, table, 1, 25000, 75000, nullptr,
                        [&](const void* p) {
                          ++count;
                          total += static_cast<const Order*>(p)->amount;
                          return true;
                        });
  });
  stop.store(true);
  writer.join();
  std::printf("  report: %llu orders in [25000,75000], total %llu (%s)\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(total),
              report.ok() ? "ok" : report.ToString().c_str());

  // 2: serializable scan vs conflicting insert.
  Txn* scanner = db.Begin(IsolationLevel::kSerializable);
  uint64_t in_range = 0;
  db.ScanRange(scanner, table, 1, 1000, 2000, nullptr, [&](const void*) {
    ++in_range;
    return true;
  });
  Order phantom{900000, 1500};
  // One attempt, no retry: under 1V it waits out the range lock and aborts.
  Txn* inserter = db.Begin(IsolationLevel::kReadCommitted);
  Status insert = db.Insert(inserter, table, &phantom);
  if (insert.ok()) {
    insert = db.Commit(inserter);
  } else if (!insert.IsAborted()) {
    db.Abort(inserter);
  }
  Status commit = db.Commit(scanner);
  std::printf("  phantom race: insert %s, scanner commit %s\n",
              insert.ok() ? "committed" : "aborted (waited out the range lock)",
              commit.ok() ? "ok" : "aborted (phantom caught at rescan)");

  // 3: insert outside the range is harmless.
  scanner = db.Begin(IsolationLevel::kSerializable);
  db.ScanRange(scanner, table, 1, 1000, 2000, nullptr,
               [](const void*) { return true; });
  Order harmless{900001, 99999};
  Status insert2 = db.RunTransaction(
      IsolationLevel::kReadCommitted,
      [&](Txn* t) { return db.Insert(t, table, &harmless); });
  Status commit2 = db.Commit(scanner);
  std::printf("  outside range: insert %s, scanner commit %s\n",
              insert2.ok() ? "ok" : "aborted", commit2.ok() ? "ok" : "aborted");
}

}  // namespace

int main() {
  for (Scheme scheme : {Scheme::kSingleVersion, Scheme::kMultiVersionLocking,
                        Scheme::kMultiVersionOptimistic}) {
    std::printf("%s:\n", SchemeName(scheme));
    RunScheme(scheme);
  }
  return 0;
}
