// Bank transfers: the paper's Figure 1 scenario, at scale and concurrently.
//
// Many worker threads move money between accounts while auditors take
// transactionally consistent snapshots. The invariant -- total balance never
// changes -- holds under every scheme; under the MV schemes the auditors
// never block the writers (the paper's key robustness claim).
//
//   $ ./bank_transfer [scheme] [threads]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timing.h"
#include "core/database.h"

using namespace mvstore;

struct Account {
  uint64_t id;
  int64_t balance;
};

uint64_t AccountKey(const void* p) {
  return static_cast<const Account*>(p)->id;
}

int main(int argc, char** argv) {
  Scheme scheme = Scheme::kMultiVersionOptimistic;
  if (argc > 1) {
    if (std::strcmp(argv[1], "1V") == 0) scheme = Scheme::kSingleVersion;
    if (std::strcmp(argv[1], "MV/L") == 0) {
      scheme = Scheme::kMultiVersionLocking;
    }
  }
  uint32_t threads = argc > 2 ? std::stoul(argv[2]) : 4;

  constexpr uint64_t kAccounts = 1000;
  constexpr int64_t kInitial = 100;

  DatabaseOptions options;
  options.scheme = scheme;
  Database db(options);

  TableDef def;
  def.name = "accounts";
  def.payload_size = sizeof(Account);
  def.indexes.push_back(IndexDef{&AccountKey, kAccounts, true});
  TableId accounts = db.CreateTable(def);

  for (uint64_t id = 0; id < kAccounts; ++id) {
    db.RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* t) {
      Account acc{id, kInitial};
      return db.Insert(t, accounts, &acc);
    });
  }
  std::printf("loaded %llu accounts under %s\n",
              static_cast<unsigned long long>(kAccounts), SchemeName(scheme));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> transfers{0};
  std::atomic<uint64_t> audits{0};
  std::atomic<uint64_t> bad_audits{0};

  std::vector<std::thread> pool;
  // Transfer workers.
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Random rng(t + 1);
      while (!stop.load()) {
        uint64_t from = rng.Uniform(kAccounts);
        uint64_t to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        int64_t amount = static_cast<int64_t>(rng.Uniform(10));
        Status s = db.RunTransaction(
            IsolationLevel::kReadCommitted,
            [&](Txn* txn) {
              Status u = db.Update(txn, accounts, 0, from, [&](void* p) {
                static_cast<Account*>(p)->balance -= amount;
              });
              if (!u.ok()) return u;
              return db.Update(txn, accounts, 0, to, [&](void* p) {
                static_cast<Account*>(p)->balance += amount;
              });
            });
        if (s.ok()) transfers.fetch_add(1);
      }
    });
  }
  // One auditor: consistent snapshot of all balances.
  pool.emplace_back([&] {
    IsolationLevel audit_iso = scheme == Scheme::kSingleVersion
                                   ? IsolationLevel::kSerializable
                                   : IsolationLevel::kSnapshot;
    while (!stop.load()) {
      int64_t total = 0;
      Status s = db.RunTransaction(
          audit_iso,
          [&](Txn* txn) {
            total = 0;
            Account acc{};
            for (uint64_t id = 0; id < kAccounts; ++id) {
              Status rs = db.Read(txn, accounts, 0, id, &acc);
              if (!rs.ok()) return rs;
              total += acc.balance;
            }
            return Status::OK();
          });
      if (s.ok()) {
        audits.fetch_add(1);
        if (total != static_cast<int64_t>(kAccounts) * kInitial) {
          bad_audits.fetch_add(1);
        }
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  for (auto& th : pool) th.join();

  std::printf("transfers: %llu, audits: %llu, inconsistent audits: %llu\n",
              static_cast<unsigned long long>(transfers.load()),
              static_cast<unsigned long long>(audits.load()),
              static_cast<unsigned long long>(bad_audits.load()));
  return bad_audits.load() == 0 ? 0 : 1;
}
