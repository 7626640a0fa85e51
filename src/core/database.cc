#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace mvstore {

Database::Database(DatabaseOptions options)
    : substrate_(options), txn_handle_pool_(options.use_slab_allocator) {
  if (options.scheme == Scheme::kSingleVersion) {
    SVEngineOptions sv;
    sv.lock_timeout_us = options.lock_timeout_us;
    sv_ = std::make_unique<SVEngine>(substrate_, sv);
  } else {
    MVEngineOptions mv;
    mv.honor_locks = options.honor_locks;
    mv.gc_interval_us = options.gc_interval_us;
    mv.deadlock_interval_us = options.deadlock_interval_us;
    mv_ = std::make_unique<MVEngine>(substrate_, mv);
  }
  // A dead sink at construction (bad path, permissions, full disk) means
  // every commit from here on would silently lose durability; say so once,
  // loudly. Database::Open turns this into a hard error.
  if (!log_status().ok()) {
    std::fprintf(stderr,
                 "mvstore: database log sink on '%s' is broken; commits will "
                 "NOT be durable (check Database::log_status())\n",
                 options.log_path.c_str());
  }
}

Database::~Database() = default;

TableId Database::CreateTable(TableDef def) {
  return mv_ != nullptr ? mv_->CreateTable(std::move(def))
                        : sv_->CreateTable(std::move(def));
}

Txn* Database::Begin(IsolationLevel isolation, bool read_only) {
  if (mv_ != nullptr) {
    bool pessimistic = options().scheme == Scheme::kMultiVersionLocking;
    return txn_handle_pool_.Acquire(
        mv_->Begin(isolation, pessimistic, read_only), nullptr, isolation);
  }
  return txn_handle_pool_.Acquire(nullptr, sv_->Begin(isolation, read_only),
                                  isolation);
}

void Database::EnterReadOnlyMode(const char* why) {
  bool expected = false;
  if (!read_only_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // already degraded; first transition wins
  }
  stats().Add(Stat::kReadOnlyTransitions);
  std::fprintf(stderr,
               "mvstore: entering READ-ONLY mode (%s); writes are refused "
               "with kReadOnly until restart + recovery (see "
               "docs/RELIABILITY.md)\n",
               why);
}

bool Database::WriteAllowed(bool check_sink) {
  if (MVSTORE_UNLIKELY(read_only_.load(std::memory_order_acquire))) {
    stats().Add(Stat::kWritesRefusedReadOnly);
    return false;
  }
  if (check_sink && options().log_mode != LogMode::kDisabled &&
      MVSTORE_UNLIKELY(!log_status().ok())) {
    EnterReadOnlyMode("log sink reported failure");
    stats().Add(Stat::kWritesRefusedReadOnly);
    return false;
  }
  return true;
}

Status Database::Commit(Txn* txn) {
  const bool has_writes = txn->mv != nullptr ? !txn->mv->write_set.empty()
                                             : !txn->sv->undo.empty();
  if (has_writes && MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/true))) {
    // Refuse before anything becomes visible or reaches the log: roll the
    // transaction back and report the degradation instead of acknowledging
    // a commit that could never be durable.
    Abort(txn);
    return Status::ReadOnly();
  }
  Status s = txn->mv != nullptr ? mv_->Commit(txn->mv) : sv_->Commit(txn->sv);
  ReleaseTxn(txn);
  if (has_writes && options().log_mode != LogMode::kDisabled &&
      MVSTORE_UNLIKELY(!log_status().ok())) {
    EnterReadOnlyMode("log write/fsync failure during commit");
    if (s.ok() && options().log_mode == LogMode::kSync) {
      // The engine committed in memory but the synchronous flush this ack
      // would have vouched for failed: the outcome is NOT durable. Report
      // kReadOnly so the caller treats the transaction as failed (the
      // commit-durability contract table in docs/RELIABILITY.md).
      return Status::ReadOnly();
    }
  }
  return s;
}

void Database::Abort(Txn* txn) {
  if (txn->mv != nullptr) {
    mv_->Abort(txn->mv);
  } else {
    sv_->Abort(txn->sv);
  }
  ReleaseTxn(txn);
}

template <typename Op>
Status Database::OnEngine(Txn* txn, const Op& op) {
  Status s = txn->mv != nullptr ? op(*mv_, txn->mv) : op(*sv_, txn->sv);
  if (s.IsAborted()) ReleaseTxn(txn);
  return s;
}

template <typename Op>
Status Database::TimedOnEngine(obs::Hist hist, Txn* txn, const Op& op) {
  obs::LatencyHistograms& h = hists();
  const uint64_t t_start = h.enabled() ? obs::NowTicks() : 0;
  Status s = OnEngine(txn, op);
  if (t_start != 0) h.RecordSince(hist, t_start);
  return s;
}

Status Database::Read(Txn* txn, TableId table_id, IndexId index_id,
                      uint64_t key, void* out) {
  return TimedOnEngine(obs::Hist::kReadLatency, txn, [&](auto& e, auto* t) {
    return e.Read(t, table_id, index_id, key, out);
  });
}

Status Database::Scan(Txn* txn, TableId table_id, IndexId index_id,
                      uint64_t key,
                      const std::function<bool(const void*)>& residual,
                      const std::function<bool(const void*)>& consumer) {
  return TimedOnEngine(obs::Hist::kScanLatency, txn, [&](auto& e, auto* t) {
    return e.Scan(t, table_id, index_id, key, residual, consumer);
  });
}

Status Database::ScanRange(Txn* txn, TableId table_id, IndexId index_id,
                           uint64_t lo, uint64_t hi,
                           const std::function<bool(const void*)>& residual,
                           const std::function<bool(const void*)>& consumer) {
  return TimedOnEngine(obs::Hist::kScanLatency, txn, [&](auto& e, auto* t) {
    return e.ScanRange(t, table_id, index_id, lo, hi, residual, consumer);
  });
}

Status Database::ScanTable(Txn* txn, TableId table_id,
                           const std::function<bool(const void*)>& consumer) {
  return TimedOnEngine(obs::Hist::kScanLatency, txn, [&](auto& e, auto* t) {
    return e.ScanTable(t, table_id, consumer);
  });
}

Status Database::Insert(Txn* txn, TableId table_id, const void* payload) {
  // Read-only refusal does not abort: the transaction may keep reading and
  // commit its read-only remainder.
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return OnEngine(txn, [&](auto& e, auto* t) {
    return e.Insert(t, table_id, payload);
  });
}

Status Database::Update(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key,
                        const std::function<void(void*)>& mutator) {
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return OnEngine(txn, [&](auto& e, auto* t) {
    return e.Update(t, table_id, index_id, key, mutator);
  });
}

Status Database::Delete(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key) {
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return OnEngine(txn, [&](auto& e, auto* t) {
    return e.Delete(t, table_id, index_id, key);
  });
}

Status Database::RunTransaction(IsolationLevel isolation,
                                const std::function<Status(Txn*)>& body) {
  using std::chrono::microseconds;
  // Bounded by time, not attempts: a descheduled lock holder outlasts any
  // number of back-to-back retries.
  constexpr std::chrono::seconds kRetryBudget{1};
  const auto deadline = std::chrono::steady_clock::now() + kRetryBudget;
  // The first retry is immediate; later ones back off exponentially from
  // ~1us, capped at ~1ms, so a rival that holds a lock for a while is
  // waited out, not raced.
  microseconds backoff{0};
  while (true) {
    Txn* txn = Begin(isolation);
    Status s = body(txn);
    if (!s.IsAborted()) {  // an aborted body has already been rolled back
      if (!s.ok()) {
        Abort(txn);
        return s;
      }
      s = Commit(txn);
      if (!s.IsAborted()) return s;
    }
    if (std::chrono::steady_clock::now() >= deadline) return s;
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = std::clamp(2 * backoff, microseconds{1}, microseconds{1000});
  }
}

std::vector<std::pair<std::string, uint64_t>> Database::CounterSnapshot() {
  StatsCollector& s = stats();
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(static_cast<uint32_t>(Stat::kNumStats));
  for (uint32_t i = 0; i < static_cast<uint32_t>(Stat::kNumStats); ++i) {
    out.emplace_back(StatName(static_cast<Stat>(i)),
                     s.Get(static_cast<Stat>(i)));
  }
  // Sorted by name (the stable-name scrape contract, docs/API.md): scrapers
  // diff consecutive snapshots line-by-line.
  std::sort(out.begin(), out.end());
  return out;
}

uint32_t Database::RegisterProcedure(const std::string& name,
                                     ProcedureFn fn) {
  WriterLock lock(procedures_mutex_);
  for (uint32_t i = 0; i < procedures_.size(); ++i) {
    if (procedures_[i].first == name) {
      procedures_[i].second = std::move(fn);
      return i;
    }
  }
  procedures_.emplace_back(name, std::move(fn));
  return static_cast<uint32_t>(procedures_.size() - 1);
}

int64_t Database::FindProcedure(const std::string& name) {
  ReaderLock lock(procedures_mutex_);
  for (uint32_t i = 0; i < procedures_.size(); ++i) {
    if (procedures_[i].first == name) return i;
  }
  return -1;
}

uint32_t Database::NumProcedures() {
  ReaderLock lock(procedures_mutex_);
  return static_cast<uint32_t>(procedures_.size());
}

std::string Database::ProcedureName(uint32_t id) {
  ReaderLock lock(procedures_mutex_);
  return id < procedures_.size() ? procedures_[id].first : std::string();
}

Status Database::CallProcedure(uint32_t id, const uint8_t* arg,
                               size_t arg_len, std::vector<uint8_t>* result) {
  ReaderLock lock(procedures_mutex_);
  if (id >= procedures_.size()) return Status::InvalidArgument();
  return procedures_[id].second(*this, arg, arg_len, result);
}

}  // namespace mvstore
