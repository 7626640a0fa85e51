// perfbench: the repository benchmark. One workload per invocation, every
// scheme (1V, MV/L, MV/O) in turn on a fresh Database loaded the same way,
// closed-loop clients, correctness checks after each window, one JSON
// result line last on stdout.
//
//   perfbench --workload hot_update|long_reader_mix|tatp_tcp --seed N
//             --seconds S --trace 0|1 [--spans DIR]
//
// --seconds is the measured time of the whole run, split evenly over the
// schemes, and per scheme over kRounds rounds, each on a freshly loaded
// database with its own warm-up (with --trace 1: one round, split into an
// untraced and a traced window). The schemes take turns round by round. A
// rate is the mean of the rounds' rates less the highest and the lowest,
// so one disturbed round or one unlucky database instance does not move
// it; latency quantiles are taken over the samples of all rounds.
//
// --trace 0 reports the end-to-end metrics: per scheme the committed
// transactions (or calls) per second and the median client-observed
// latency, plus set-up time and peak RSS. --trace 1 reports the per-layer
// ledger, derived from spans the benchmark records around its own calls
// into the engine, client and server, plus engine counter and histogram
// deltas over the traced window; it also carries the untraced window's
// p99 latency and long-reader rows per second, which swing by more than
// any usable regression bound with the load on a shared 4-vCPU machine.
// perfbench/run.py builds this binary and is the entry point; BENCHMARK.json
// at the repo root lists the metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/tcp_transport.h"
#include "common/random.h"
#include "core/database.h"
#include "obs/histogram.h"
#include "server/mv_server.h"
#include "stats.h"
#include "workload/homogeneous.h"
#include "workload/tatp.h"

namespace perfbench {
namespace {

using mvstore::Database;
using mvstore::DatabaseOptions;
using mvstore::IsolationLevel;
using mvstore::Random;
using mvstore::Scheme;
using mvstore::Status;
using mvstore::TableId;
using mvstore::Txn;
using mvstore::obs::Hist;
using mvstore::obs::HistogramData;
using mvstore::obs::NowTicks;
using mvstore::workload::Row24;

// --- workload shapes (the paper's parameters; see BENCHMARK.json) -----------

constexpr uint32_t kReads = 10;   // R of the update transaction
constexpr uint32_t kWrites = 2;   // W of the update transaction
constexpr uint64_t kHotRows = 1000;           // Fig 5 hotspot
constexpr uint64_t kMixRows = 100000;         // Fig 8/9 table
constexpr uint64_t kLongReadRows = 10000;     // 10% of kMixRows
constexpr uint64_t kTatpSubscribers = 100000; // ~1M rows
constexpr uint32_t kTatpDepth = 8;            // pipelined calls per batch
constexpr double kWarmupSeconds = 0.3;
/// A --trace 0 run measures each scheme in kRounds rounds, each on a
/// freshly loaded database: throughput moves by several percent from one
/// database instance to the next, and from one second to the next on a
/// shared machine.
constexpr uint32_t kRounds = 5;
/// Each round times loads until kSetupMinSeconds / kRounds have passed and
/// keeps the last database; setup_s sums the per-scheme medians, so it
/// stays steady when a load takes only a millisecond.
constexpr double kSetupMinSeconds = 0.3;
/// Traced runs sample one transaction in kTraceEvery per thread.
constexpr uint64_t kTraceEvery = 64;
constexpr size_t kSpanCapacity = 1 << 17;  // per thread

struct SchemeInfo {
  Scheme scheme;
  const char* key;  // metric-name prefix
};
constexpr SchemeInfo kSchemes[] = {
    {Scheme::kSingleVersion, "1v"},
    {Scheme::kMultiVersionLocking, "mvl"},
    {Scheme::kMultiVersionOptimistic, "mvo"},
};

enum class Workload { kHotUpdate, kLongReaderMix, kTatpTcp };

DatabaseOptions EngineOptions(Scheme scheme) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.log_mode = mvstore::LogMode::kAsync;  // in-memory sink: no log_path
  opts.group_commit_us = 100;
  opts.use_slab_allocator = true;
  return opts;
}

/// Independent per-thread streams derived from the run seed (SplitMix64
/// finalizer over seed and stream id).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- tracing ----------------------------------------------------------------

enum SpanName : uint16_t {
  kSpanTxn = 0,     // one short transaction (root)
  kSpanLongTxn,     // one long read-only transaction (root)
  kSpanBatch,       // one pipelined batch of calls (root)
  kSpanBegin,       // Database::Begin
  kSpanRead,        // Database::Read
  kSpanUpdate,      // Database::Update
  kSpanCommit,      // Database::Commit
  kSpanFlushBatch,  // MVClient::FlushBatch
  kNumSpanNames,
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "txn", "long_txn", "batch", "txn.begin", "storage.read", "cc.update",
    "txn.commit", "client.flush_batch"};

/// Per-thread span buffer. Whole transactions are sampled: the decision is
/// made when the root opens, and a transaction is sampled only if the
/// buffer has room for all of its spans, so no trace is ever partial.
class Tracer {
 public:
  Tracer(uint64_t first_txn_id, bool enabled) : next_txn_(first_txn_id) {
    if (enabled) spans_.reserve(kSpanCapacity);
  }

  /// Opens a root span if this transaction is sampled; returns its index or
  /// kNoParent.
  uint32_t OpenRoot(SpanName name, size_t max_spans) {
    if (++counter_ % kTraceEvery != 0) return kNoParent;
    if (spans_.size() + max_spans > spans_.capacity()) {
      ++dropped_;
      return kNoParent;
    }
    txn_ = next_txn_++;
    spans_.push_back(Span{NowTicks(), 0, txn_, kNoParent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void CloseRoot(uint32_t root) {
    if (root != kNoParent) spans_[root].end = NowTicks();
  }
  void Add(SpanName name, uint64_t start, uint64_t end, uint32_t root) {
    spans_.push_back(Span{start, end, txn_, root, name});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t counter_ = 0;
  uint64_t next_txn_;
  uint64_t txn_ = 0;
  uint64_t dropped_ = 0;
};

/// Runs `fn`, recording a span under `root` when the transaction is traced.
template <typename Fn>
auto Traced(Tracer* tracer, uint32_t root, SpanName name, Fn&& fn) {
  if (root == kNoParent) return fn();
  const uint64_t t0 = NowTicks();
  auto result = fn();
  tracer->Add(name, t0, NowTicks(), root);
  return result;
}

// --- per-window results -----------------------------------------------------

/// An operation is one transaction (or one call) as the client submits
/// it. An attempt that aborts, or that reads a row as missing (see
/// StepFailed), is resubmitted with the same keys until it commits, as a
/// client of an optimistic engine does; each execution is a try. An
/// operation still being retried when the run stops is not counted.
struct Counts {
  uint64_t attempts = 0;   // operations with a final outcome
  uint64_t failed = 0;     // operations that ended in an error
  uint64_t tries = 0;      // executions, retries included
  uint64_t not_found = 0;  // tries that read an existing row as missing

  void Add(const Counts& c) {
    attempts += c.attempts;
    failed += c.failed;
    tries += c.tries;
    not_found += c.not_found;
  }
};

struct Tally : Counts {
  uint64_t committed = 0;  // short transactions / calls
  uint64_t long_rows = 0;  // rows read by committed long readers
  FineHistogram latency_ticks;  // committed short transactions / batches
};

/// One client thread's view of a window.
struct ThreadLog {
  ThreadLog(uint64_t tracer_base, bool traced) : tracer(tracer_base, traced) {}
  Tally phases[2];  // warm-up, measured
  uint64_t committed_updates = 0;  // every phase: feeds the sum check
  uint64_t unexpected = 0;         // statuses that are neither OK nor abort
  uint64_t replies = 0;            // tatp: responses received
  uint64_t calls = 0;              // tatp: calls sent
  uint64_t client_retries = 0;     // tatp: MVClient retries + reconnects
  Tracer tracer;
};

/// Phase protocol between the coordinator and the clients: 0 = warm-up,
/// 1 = measured, 2 = stop.
struct Window {
  std::atomic<uint32_t> phase{0};
  double measured_seconds = 0;
};

using ClientFn = std::function<void(uint32_t tid, Window& window,
                                    ThreadLog& log, bool traced)>;

struct EngineSnapshot {
  std::map<std::string, uint64_t> counters;
  HistogramData hists[static_cast<uint32_t>(Hist::kNumHists)];
};

EngineSnapshot SnapshotEngine(Database& db) {
  EngineSnapshot snap;
  for (auto& [name, value] : db.CounterSnapshot()) snap.counters[name] = value;
  for (uint32_t h = 0; h < static_cast<uint32_t>(Hist::kNumHists); ++h) {
    snap.hists[h] = db.hists().Snapshot(static_cast<Hist>(h));
  }
  return snap;
}

struct WindowResult {
  std::vector<std::unique_ptr<ThreadLog>> logs;
  Window window;
  EngineSnapshot before;
  EngineSnapshot after;
};

/// Runs `threads` closed-loop clients through a warm-up and `seconds` of
/// measurement.
std::unique_ptr<WindowResult> RunWindow(Database& db, uint32_t threads,
                                        double seconds, bool traced,
                                        const ClientFn& client) {
  auto result = std::make_unique<WindowResult>();
  for (uint32_t t = 0; t < threads; ++t) {
    result->logs.push_back(
        std::make_unique<ThreadLog>(static_cast<uint64_t>(t + 1) << 40,
                                    traced));
  }
  Window& window = result->window;
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { client(t, window, *result->logs[t], traced); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  result->before = SnapshotEngine(db);
  const auto start = std::chrono::steady_clock::now();
  window.phase.store(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  window.phase.store(2, std::memory_order_relaxed);
  window.measured_seconds = SecondsSince(start);
  result->after = SnapshotEngine(db);
  for (auto& w : workers) w.join();
  return result;
}

// --- workload clients -------------------------------------------------------

void AddOne(void* p) { static_cast<Row24*>(p)->value += 1; }

struct Outcome {
  bool committed = false;
  bool not_found = false;   // a row of the table was reported missing
  bool unexpected = false;  // any other status but OK or an abort
};

/// Classifies a Read/Update/Commit status. An abort has already released
/// the transaction; any other failure leaves it open and is aborted here,
/// so the attempt adds nothing to the sum check. Every key the clients use
/// exists, so NotFound is an engine anomaly: an MV Read Committed read
/// racing the commit of an update of the same row can find neither the old
/// version nor the new one visible. The attempt is retried like an abort
/// and the anomaly reported per scheme (cc.not_found_per_k) rather than
/// failing the run.
bool StepFailed(Database& db, Txn* txn, const Status& s, Outcome* out) {
  if (s.ok()) return false;
  if (!s.IsAborted()) {
    db.Abort(txn);
    (s.IsNotFound() ? out->not_found : out->unexpected) = true;
  }
  return true;
}

/// One R=10/W=2 update transaction at Read Committed with uniform keys.
Outcome UpdateTxn(Database& db, TableId table, uint64_t rows, Random& rng,
                  Tracer* tracer, uint32_t root) {
  Outcome out;
  Txn* txn = Traced(tracer, root, kSpanBegin, [&] {
    return db.Begin(IsolationLevel::kReadCommitted);
  });
  Row24 row;
  for (uint32_t i = 0; i < kReads; ++i) {
    const uint64_t key = rng.Uniform(rows);
    Status s = Traced(tracer, root, kSpanRead,
                      [&] { return db.Read(txn, table, 0, key, &row); });
    if (StepFailed(db, txn, s, &out)) return out;
  }
  for (uint32_t i = 0; i < kWrites; ++i) {
    const uint64_t key = rng.Uniform(rows);
    Status s = Traced(tracer, root, kSpanUpdate,
                      [&] { return db.Update(txn, table, 0, key, AddOne); });
    if (StepFailed(db, txn, s, &out)) return out;
  }
  Status s =
      Traced(tracer, root, kSpanCommit, [&] { return db.Commit(txn); });
  if (!s.ok()) {
    out.unexpected = !s.IsAborted();
    return out;
  }
  out.committed = true;
  return out;
}

/// One serializable read-only transaction reading kLongReadRows random
/// rows.
Outcome LongReadTxn(Database& db, TableId table, uint64_t rows, Random& rng,
                    Tracer* tracer, uint32_t root) {
  Outcome out;
  Txn* txn = Traced(tracer, root, kSpanBegin, [&] {
    return db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
  });
  Row24 row;
  for (uint64_t i = 0; i < kLongReadRows; ++i) {
    const uint64_t key = rng.Uniform(rows);
    Status s = Traced(tracer, root, kSpanRead,
                      [&] { return db.Read(txn, table, 0, key, &row); });
    if (StepFailed(db, txn, s, &out)) return out;
  }
  Status s =
      Traced(tracer, root, kSpanCommit, [&] { return db.Commit(txn); });
  if (!s.ok()) {
    out.unexpected = !s.IsAborted();
    return out;
  }
  out.committed = true;
  return out;
}

/// Closed-loop in-process client: thread `long_reader_tid` (if any) runs
/// long readers, every other thread update transactions.
ClientFn InProcessClient(Database& db, TableId table, uint64_t rows,
                         uint64_t seed, int long_reader_tid) {
  return [&db, table, rows, seed, long_reader_tid](
             uint32_t tid, Window& window, ThreadLog& log, bool traced) {
    Random rng(StreamSeed(seed, tid));
    Tracer* tracer = traced ? &log.tracer : nullptr;
    const bool long_reader = static_cast<int>(tid) == long_reader_tid;
    for (;;) {
      const uint32_t phase = window.phase.load(std::memory_order_relaxed);
      if (phase > 1) break;
      Tally& tally = log.phases[phase];
      const Random submitted = rng;
      const uint64_t t0 = NowTicks();
      Outcome out;
      for (;;) {
        rng = submitted;  // a retry resubmits the same keys
        const uint32_t root =
            tracer == nullptr
                ? kNoParent
                : tracer->OpenRoot(long_reader ? kSpanLongTxn : kSpanTxn,
                                   long_reader ? kLongReadRows + 3
                                               : kReads + kWrites + 3);
        out = long_reader ? LongReadTxn(db, table, rows, rng, tracer, root)
                          : UpdateTxn(db, table, rows, rng, tracer, root);
        if (tracer != nullptr) tracer->CloseRoot(root);
        ++tally.tries;
        if (out.not_found) ++tally.not_found;
        if (out.committed || out.unexpected ||
            window.phase.load(std::memory_order_relaxed) > 1) {
          break;
        }
      }
      const uint64_t t1 = NowTicks();
      if (!out.committed && !out.unexpected) break;  // stopped mid-retry
      ++tally.attempts;
      if (out.unexpected) {
        ++log.unexpected;
        ++tally.failed;
      } else if (long_reader) {
        tally.long_rows += kLongReadRows;
      } else {
        ++tally.committed;
        ++log.committed_updates;
        tally.latency_ticks.Record(t1 - t0);
      }
    }
  };
}

/// Closed-loop TCP client: pipelines kTatpDepth "tatp.mixed" calls per
/// batch over its own connection. A call that comes back aborted, or
/// refused unstarted (Unavailable), is sent again with the same seed at
/// the head of the next batch.
ClientFn TatpClient(mvstore::Transport& transport, uint32_t proc_id,
                    uint64_t seed) {
  return [&transport, proc_id, seed](uint32_t tid, Window& window,
                                     ThreadLog& log, bool traced) {
    Status status;
    std::unique_ptr<mvstore::Connection> conn = transport.Connect(&status);
    if (conn == nullptr) {
      ++log.unexpected;
      return;
    }
    mvstore::MVClient client(std::move(conn));
    Random rng(StreamSeed(seed, 1000 + tid));
    Tracer* tracer = traced ? &log.tracer : nullptr;
    std::vector<mvstore::WireResult> results;
    std::vector<uint64_t> batch;  // call seeds, retries first
    uint8_t arg[9];
    arg[8] = static_cast<uint8_t>(IsolationLevel::kReadCommitted);
    for (;;) {
      const uint32_t phase = window.phase.load(std::memory_order_relaxed);
      if (phase > 1) break;
      Tally& tally = log.phases[phase];
      const uint32_t root = tracer == nullptr
                                ? kNoParent
                                : tracer->OpenRoot(kSpanBatch, 2);
      while (batch.size() < kTatpDepth) batch.push_back(rng.Next());
      for (const uint64_t call_seed : batch) {
        std::memcpy(arg, &call_seed, 8);
        client.QueueCall(proc_id, arg, sizeof(arg));
      }
      results.clear();
      const uint64_t t0 = NowTicks();
      Status s = Traced(tracer, root, kSpanFlushBatch,
                        [&] { return client.FlushBatch(&results); });
      const uint64_t t1 = NowTicks();
      if (tracer != nullptr) tracer->CloseRoot(root);
      log.calls += kTatpDepth;
      log.replies += results.size();
      tally.tries += kTatpDepth;
      if (!s.ok() || results.size() != kTatpDepth) {
        // The connection is gone: every call failed.
        tally.attempts += kTatpDepth;
        tally.failed += kTatpDepth;
        ++log.unexpected;
        break;
      }
      std::vector<uint64_t> retry;
      for (uint32_t i = 0; i < kTatpDepth; ++i) {
        const Status& r = results[i].status;
        if (r.IsAborted() || r.IsUnavailable()) {
          retry.push_back(batch[i]);
          continue;
        }
        ++tally.attempts;
        // NotFound is a TATP spec outcome (missing subscriber / facility).
        if (r.ok() || r.IsNotFound()) {
          ++tally.committed;
        } else {
          ++tally.failed;
        }
      }
      batch = std::move(retry);
      tally.latency_ticks.Record(t1 - t0);
    }
    log.client_retries = client.retries() + client.reconnects();
  };
}

// --- per-scheme measurement -------------------------------------------------

struct EndToEnd : Counts {
  double tps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double long_rows_per_s = 0;
  uint64_t latency_samples = 0;
  FineHistogram latency_ticks;
};

void SetQuantiles(const FineHistogram& lat, EndToEnd* e) {
  const double us_per_tick = mvstore::obs::NanosPerTick() / 1e3;
  e->latency_ticks = lat;
  e->latency_samples = lat.count();
  e->p50_us = lat.Quantile(0.50) * us_per_tick;
  e->p99_us = lat.Quantile(0.99) * us_per_tick;
}

/// End-to-end figures of one window.
EndToEnd Summarize(const WindowResult& w) {
  EndToEnd e;
  uint64_t committed = 0;
  uint64_t rows = 0;
  FineHistogram lat;
  for (const auto& log : w.logs) {
    const Tally& tally = log->phases[1];
    committed += tally.committed;
    rows += tally.long_rows;
    e.Add(tally);
    lat.Merge(tally.latency_ticks);
  }
  e.tps = static_cast<double>(committed) / w.window.measured_seconds;
  e.long_rows_per_s = static_cast<double>(rows) / w.window.measured_seconds;
  SetQuantiles(lat, &e);
  return e;
}

/// Combines the rounds of one scheme: rates are the trimmed mean over
/// rounds, latency quantiles are taken over the samples of all rounds, and
/// counts add up.
EndToEnd Combine(const std::vector<EndToEnd>& rounds) {
  EndToEnd e;
  std::vector<double> tps;
  std::vector<double> long_rows;
  FineHistogram lat;
  for (const EndToEnd& r : rounds) {
    tps.push_back(r.tps);
    long_rows.push_back(r.long_rows_per_s);
    lat.Merge(r.latency_ticks);
    e.Add(r);
  }
  e.tps = TrimmedMean(tps);
  e.long_rows_per_s = TrimmedMean(long_rows);
  SetQuantiles(lat, &e);
  return e;
}

/// One full-table read after the window, in a serializable read-only
/// transaction: it must see exactly `rows` rows whose `value_of` sum to
/// `expected_sum`.
bool CheckTable(Database& db, TableId table, uint64_t rows,
                uint64_t expected_sum, uint64_t (*value_of)(const void*)) {
  uint64_t sum = 0;
  uint64_t seen = 0;
  Txn* txn = db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
  Status s = db.ScanTable(txn, table, [&](const void* p) {
    sum += value_of(p);
    ++seen;
    return true;
  });
  if (!s.IsAborted()) s = db.Commit(txn);
  if (!s.ok() || seen != rows || sum != expected_sum) {
    std::printf("CHECK FAILED: scan status=%s rows=%" PRIu64 "/%" PRIu64
                " sum=%" PRIu64 " expected=%" PRIu64 "\n",
                s.ToString().c_str(), seen, rows, sum, expected_sum);
    return false;
  }
  return true;
}

uint64_t RowValue(const void* p) { return static_cast<const Row24*>(p)->value; }
uint64_t SubscriberId(const void* p) {
  return static_cast<const mvstore::tatp::SubscriberRow*>(p)->s_id;
}

/// The rule of tatp::CheckConsistency (every call-forwarding row belongs
/// to an existing special facility, every subscriber exists), checked in
/// serializable read-only transactions of kCheckChunk subscribers each.
/// The database is quiescent when this runs, so the chunks all see the
/// same state. One transaction over the whole database, as
/// tatp::CheckConsistency uses, takes minutes under 1V at this scale: its
/// lookup of a lock the transaction already holds is linear in the locks
/// held (SVTransaction::FindLock), so the check would be quadratic.
bool TatpConsistent(Database& db, const mvstore::tatp::TatpDatabase& t) {
  constexpr uint64_t kCheckChunk = 100;
  using mvstore::tatp::SpecialFacilityRow;
  for (uint64_t lo = 1; lo <= t.subscribers; lo += kCheckChunk) {
    const uint64_t hi = std::min(t.subscribers, lo + kCheckChunk - 1);
    Txn* txn = db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
    bool consistent = true;
    Status s;
    for (uint64_t sid = lo; sid <= hi && consistent && s.ok(); ++sid) {
      mvstore::tatp::SubscriberRow sub;
      s = db.Read(txn, t.subscriber, 0, sid, &sub);
      for (uint8_t sf_type = 1; sf_type <= 4 && s.ok(); ++sf_type) {
        SpecialFacilityRow sf;
        Status sf_status = db.Read(
            txn, t.special_facility, 0,
            mvstore::tatp::SpecialFacilityKey(sid, sf_type), &sf);
        if (sf_status.IsAborted() ||
            (!sf_status.ok() && !sf_status.IsNotFound())) {
          s = sf_status;
          break;
        }
        bool cf_exists = false;
        s = db.Scan(txn, t.call_forwarding, 1,
                    mvstore::tatp::CallForwardingSfKey(sid, sf_type), nullptr,
                    [&](const void*) {
                      cf_exists = true;
                      return false;
                    });
        if (cf_exists && sf_status.IsNotFound()) consistent = false;
      }
    }
    if (s.ok()) {
      s = db.Commit(txn);
    } else if (!s.IsAborted()) {
      db.Abort(txn);
    }
    if (!s.ok() || !consistent) {
      std::printf("CHECK FAILED: TATP consistency (subscribers %" PRIu64
                  "..%" PRIu64 "): %s\n",
                  lo, hi, consistent ? s.ToString().c_str() : "dangling row");
      return false;
    }
  }
  return true;
}

/// A per-layer figure and its unit.
struct Metric {
  double value = 0;
  const char* unit = "";
};

struct SchemeRun {
  EndToEnd e2e;
  std::vector<double> setup_seconds;
  bool correct = true;
  // Traced runs only.
  std::map<std::string, Metric> layers;
};

/// A loaded database plus what the workload needs to drive it.
struct Loaded {
  std::unique_ptr<Database> db;
  TableId table = 0;
  mvstore::tatp::TatpDatabase tatp{};
};

Loaded Load(Workload workload, Scheme scheme, uint64_t seed) {
  Loaded l;
  l.db = std::make_unique<Database>(EngineOptions(scheme));
  switch (workload) {
    case Workload::kHotUpdate:
      l.table = mvstore::workload::CreateAndLoadRows(*l.db, kHotRows);
      break;
    case Workload::kLongReaderMix:
      l.table = mvstore::workload::CreateAndLoadRows(*l.db, kMixRows);
      break;
    case Workload::kTatpTcp:
      l.tatp = mvstore::tatp::LoadTatp(*l.db, kTatpSubscribers,
                                       StreamSeed(seed, 999));
      mvstore::tatp::RegisterTatpProcedures(*l.db, l.tatp);
      break;
  }
  return l;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Per-layer ledger of one traced window.
std::map<std::string, Metric> Layers(const WindowResult& w,
                                     const EndToEnd& e2e,
                                     const std::string& spans_path) {
  std::map<std::string, Metric> m;
  const double ns_per_tick = mvstore::obs::NanosPerTick();

  // Span means and transaction self time.
  double span_sum[kNumSpanNames] = {};
  uint64_t span_count[kNumSpanNames] = {};
  double root_self = 0;
  uint64_t roots = 0;
  FILE* out =
      spans_path.empty() ? nullptr : std::fopen(spans_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "thread\ttxn\tspan\tname\tparent\tstart_ns\tend_ns\n");
  }
  uint64_t origin = UINT64_MAX;
  for (const auto& log : w.logs) {
    if (!log->tracer.spans().empty()) {
      origin = std::min(origin, log->tracer.spans().front().start);
    }
  }
  for (size_t t = 0; t < w.logs.size(); ++t) {
    const std::vector<Span>& spans = w.logs[t]->tracer.spans();
    const std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end - s.start) * ns_per_tick;
      span_sum[s.name] += dur;
      ++span_count[s.name];
      if (s.parent == kNoParent) {
        root_self += static_cast<double>(self[i]) * ns_per_tick;
        ++roots;
      }
      if (out != nullptr) {
        std::fprintf(out, "%zu\t%" PRIu64 "\t%zu\t%s\t%ld\t%.0f\t%.0f\n", t,
                     s.txn, i, kSpanNames[s.name],
                     s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                     static_cast<double>(s.start - origin) * ns_per_tick,
                     static_cast<double>(s.end - origin) * ns_per_tick);
      }
    }
  }
  if (out != nullptr) std::fclose(out);
  uint64_t dropped = 0;
  for (const auto& log : w.logs) dropped += log->tracer.dropped();
  std::printf("       traced %" PRIu64 " transactions/batches, %" PRIu64
              " unsampled for lack of span buffer\n",
              roots, dropped);
  auto span_mean = [&](SpanName n) {
    return Ratio(span_sum[n], static_cast<double>(span_count[n]));
  };
  m["txn.begin_ns"] = {span_mean(kSpanBegin), "ns"};
  m["cc.update_ns"] = {span_mean(kSpanUpdate), "ns"};
  m["server.batch_rtt_us"] = {span_mean(kSpanFlushBatch) / 1e3, "us"};
  m["workload.self_ns"] = {Ratio(root_self, static_cast<double>(roots)),
                           "ns"};

  // Engine histogram deltas.
  auto hist = [&](Hist h) {
    HistogramData d = w.after.hists[static_cast<uint32_t>(h)];
    d.Subtract(w.before.hists[static_cast<uint32_t>(h)]);
    return d;
  };
  // Over TCP the engine calls run inside the server, out of the
  // benchmark's reach; there Commit and Read come from the engine's own
  // commit_total and read_latency histograms, which time the same calls.
  const bool in_process = span_count[kSpanCommit] != 0;
  m["txn.commit_ns"] = {
      in_process ? span_mean(kSpanCommit)
                 : hist(Hist::kCommitTotal).Mean() * ns_per_tick,
      "ns"};
  m["storage.read_ns"] = {
      in_process ? span_mean(kSpanRead)
                 : hist(Hist::kReadLatency).Mean() * ns_per_tick,
      "ns"};
  m["cc.validate_ns"] = {hist(Hist::kCommitValidate).Mean() * ns_per_tick,
                         "ns"};
  m["log.append_ns"] = {hist(Hist::kCommitLogAppend).Mean() * ns_per_tick,
                        "ns"};
  m["gc.pass_us"] = {hist(Hist::kGcPass).Mean() * ns_per_tick / 1e3, "us"};
  const double engine_txn_ns = hist(Hist::kTxnLifetime).Mean() * ns_per_tick;
  m["server.engine_share"] = {
      Ratio(engine_txn_ns * kTatpDepth, span_mean(kSpanFlushBatch)), "ratio"};

  // Engine counter deltas, per 1k tries or per commit.
  auto delta = [&](const char* name) {
    auto a = w.after.counters.find(name);
    auto b = w.before.counters.find(name);
    if (a == w.after.counters.end() || b == w.before.counters.end()) return 0.0;
    return static_cast<double>(a->second) - static_cast<double>(b->second);
  };
  const double tries = static_cast<double>(e2e.tries);
  const double committed =
      static_cast<double>(e2e.attempts) - static_cast<double>(e2e.failed);
  auto per_k = [&](const char* name) {
    return Ratio(delta(name) * 1000.0, tries);
  };
  m["cc.commit_ratio"] = {Ratio(committed, tries), "ratio"};
  m["cc.not_found_per_k"] = {
      Ratio(static_cast<double>(e2e.not_found) * 1000.0, tries), "1/1000"};
  m["cc.abort_write_conflict_per_k"] = {per_k("abort_write_conflict"),
                                         "1/1000"};
  m["cc.abort_validation_per_k"] = {per_k("abort_validation"), "1/1000"};
  m["cc.abort_cascading_per_k"] = {per_k("abort_cascading"), "1/1000"};
  m["cc.commit_dep_waits_per_k"] = {per_k("commit_dep_waits"), "1/1000"};
  m["cc.precommit_waits_per_k"] = {per_k("precommit_waits"), "1/1000"};
  m["sv.lock_waits_per_k"] = {per_k("lock_waits"), "1/1000"};
  // Aborts for a lock that could not be had: MV/L refusals, and lock
  // timeouts, which the 1V engine counts as deadlock aborts.
  m["sv.abort_lock_failed_per_k"] = {
      per_k("abort_lock_failed") + per_k("abort_deadlock"), "1/1000"};
  m["storage.versions_per_commit"] = {
      Ratio(delta("versions_created"), committed), "1/commit"};
  m["gc.collected_per_commit"] = {
      Ratio(delta("versions_collected"), committed), "1/commit"};
  m["gc.backlog_versions"] = {
      delta("versions_created") - delta("versions_collected"), "count"};
  m["mem.slab_hit_ratio"] = {
      Ratio(delta("slab_magazine_hits"),
            delta("slab_magazine_hits") + delta("slab_magazine_misses")),
      "ratio"};
  m["mem.txn_pool_hit_ratio"] = {
      Ratio(delta("txn_pool_hits"),
            delta("txn_pool_hits") + delta("txn_pool_misses")),
      "ratio"};
  m["log.group_size"] = {
      Ratio(delta("log_group_size_sum"), delta("log_group_commits")),
      "records"};
  m["log.flushes_per_s"] = {
      Ratio(delta("log_group_commits"), w.window.measured_seconds), "1/s"};

  uint64_t retries = 0;
  for (const auto& log : w.logs) retries += log->client_retries;
  m["client.retries"] = {static_cast<double>(retries), "count"};
  return m;
}

struct RunConfig {
  Workload workload = Workload::kHotUpdate;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

/// One round: a freshly loaded database, the measured window (and in a
/// traced run the traced window after it), then the correctness checks.
/// Returns the windows; empty if the round could not start.
std::vector<std::unique_ptr<WindowResult>> RunRound(const RunConfig& cfg, const SchemeInfo& info, uint32_t round,
               double window_seconds, SchemeRun* run) {
  std::vector<std::unique_ptr<WindowResult>> windows;
  Loaded l;
  const auto setup_start = std::chrono::steady_clock::now();
  do {
    // Free the previous copy, and hand its pages back to the system, so
    // that the run's peak RSS is what one database needs rather than what
    // earlier databases left in the allocator.
    l = Loaded{};
    malloc_trim(0);
    const auto t0 = std::chrono::steady_clock::now();
    l = Load(cfg.workload, info.scheme, cfg.seed);
    run->setup_seconds.push_back(SecondsSince(t0));
  } while (!cfg.trace &&
           SecondsSince(setup_start) < kSetupMinSeconds / kRounds);
  Database& db = *l.db;

  const uint64_t seed = StreamSeed(cfg.seed, round);
  const uint32_t threads = cfg.workload == Workload::kTatpTcp ? 2 : 3;
  std::unique_ptr<mvstore::MVServer> server;
  std::unique_ptr<mvstore::TcpTransport> transport;
  ClientFn client;
  switch (cfg.workload) {
    case Workload::kHotUpdate:
      client = InProcessClient(db, l.table, kHotRows, seed, -1);
      break;
    case Workload::kLongReaderMix:
      client = InProcessClient(db, l.table, kMixRows, seed, 2);
      break;
    case Workload::kTatpTcp: {
      mvstore::ServerOptions opts;
      opts.port = 0;
      opts.workers = 2;
      opts.core.max_pipeline = 64;
      server = std::make_unique<mvstore::MVServer>(db, opts);
      Status s = server->Start();
      if (!s.ok()) {
        std::printf("CHECK FAILED: MVServer start: %s\n",
                    s.ToString().c_str());
        run->correct = false;
        return windows;
      }
      transport = std::make_unique<mvstore::TcpTransport>("127.0.0.1",
                                                          server->port());
      const auto proc = static_cast<uint32_t>(db.FindProcedure("tatp.mixed"));
      client = TatpClient(*transport, proc, seed);
      break;
    }
  }

  windows.push_back(RunWindow(db, threads, window_seconds, false, client));
  if (cfg.trace) {
    windows.push_back(RunWindow(db, threads, window_seconds, true, client));
  }
  if (server != nullptr) server->Stop();

  // Correctness of everything the windows did.
  uint64_t committed_updates = 0;
  uint64_t unexpected = 0;
  uint64_t calls = 0;
  uint64_t replies = 0;
  for (const auto& w : windows) {
    for (const auto& log : w->logs) {
      committed_updates += log->committed_updates;
      unexpected += log->unexpected;
      calls += log->calls;
      replies += log->replies;
    }
  }
  if (unexpected != 0) {
    std::printf("CHECK FAILED: %s %s: %" PRIu64
                " operations returned an unexpected status\n",
                cfg.workload_name.c_str(), info.key, unexpected);
    run->correct = false;
  }
  // The sum check of the homogeneous workloads: every committed update's
  // W increments are in the table, and nothing else is. TATP: the
  // subscriber table still holds ids 1..N (its rows are never inserted or
  // deleted), besides the spec's consistency check.
  if (cfg.workload == Workload::kTatpTcp) {
    if (!TatpConsistent(db, l.tatp)) run->correct = false;
    if (replies != calls) {
      std::printf("CHECK FAILED: %s replies %" PRIu64 " != calls %" PRIu64
                  "\n",
                  info.key, replies, calls);
      run->correct = false;
    }
    if (!CheckTable(db, l.tatp.subscriber, kTatpSubscribers,
                    kTatpSubscribers * (kTatpSubscribers + 1) / 2,
                    SubscriberId)) {
      run->correct = false;
    }
  } else {
    const uint64_t rows =
        cfg.workload == Workload::kHotUpdate ? kHotRows : kMixRows;
    if (!CheckTable(db, l.table, rows,
                    10 * (rows * (rows - 1) / 2) + kWrites * committed_updates,
                    RowValue)) {
      run->correct = false;
    }
  }
  return windows;
}

/// Measures every scheme. Rounds are interleaved (1V, MV/L, MV/O, 1V, ...)
/// so that each scheme's rounds spread over the whole run, and a slow
/// stretch of a shared machine falls on every scheme alike.
std::vector<SchemeRun> RunSchemes(const RunConfig& cfg) {
  constexpr size_t kNumSchemes = std::size(kSchemes);
  const uint32_t rounds = cfg.trace ? 1 : kRounds;
  const double window_seconds =
      cfg.seconds / kNumSchemes / (cfg.trace ? 2 : kRounds);
  std::vector<SchemeRun> runs(kNumSchemes);
  std::vector<std::vector<EndToEnd>> measured(kNumSchemes);
  std::vector<EndToEnd> traced(kNumSchemes);
  for (uint32_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < kNumSchemes; ++i) {
      const SchemeInfo& info = kSchemes[i];
      const auto windows = RunRound(cfg, info, r, window_seconds, &runs[i]);
      if (windows.empty()) continue;  // could not start
      const EndToEnd e = Summarize(*windows.front());
      measured[i].push_back(e);
      if (cfg.trace) {
        const WindowResult& traced_window = *windows.back();
        traced[i] = Summarize(traced_window);
        const std::string spans_path =
            cfg.spans_dir.empty()
                ? std::string()
                : cfg.spans_dir + "/" + cfg.workload_name + "." + info.key +
                      ".tsv";
        runs[i].layers = Layers(traced_window, traced[i], spans_path);
        // Untraced figures reported without a bound (see the top comment).
        runs[i].layers["client.p99_us"] = {e.p99_us, "us"};
        runs[i].layers["workload.long_rows_per_s"] = {e.long_rows_per_s,
                                                      "1/s"};
        runs[i].layers["trace.overhead_pct"] = {
            100.0 * (1.0 - Ratio(traced[i].tps, e.tps)), "%"};
      }
    }
  }
  for (size_t i = 0; i < kNumSchemes; ++i) {
    runs[i].e2e = Combine(measured[i]);
    runs[i].e2e.Add(traced[i]);
  }
  return runs;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot_update|long_reader_mix|"
               "tatp_tcp --seed N --seconds S --trace 0|1 [--spans DIR]\n");
}

bool ParseArgs(int argc, char** argv, RunConfig* cfg) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg->workload_name = value;
      have_workload = true;
      if (value == "hot_update") {
        cfg->workload = Workload::kHotUpdate;
      } else if (value == "long_reader_mix") {
        cfg->workload = Workload::kLongReaderMix;
      } else if (value == "tatp_tcp") {
        cfg->workload = Workload::kTatpTcp;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg->seconds > 0) || cfg->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg->trace = value == "1";
    } else if (flag == "--spans") {
      cfg->spans_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintMetric(std::string* json, const std::string& name, double value,
                 const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->size() > 1 ? ", " : "", name.c_str(), value, unit);
  *json += buf;
}

int Main(int argc, char** argv) {
#if defined(MVSTORE_FAILPOINTS_ENABLED)
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "perfbench: refusing to run a build with failpoints compiled "
               "in; configure with -DMVSTORE_FAILPOINTS_ENABLED=OFF\n");
  return 2;
#else
  RunConfig cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    Usage();
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d nproc=%ld compiler=\"%s\" build=%s "
              "failpoints=off\n",
              cfg.workload_name.c_str(), cfg.seed, cfg.seconds,
              cfg.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  if (!cfg.spans_dir.empty()) {
    std::filesystem::create_directories(cfg.spans_dir);
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_total = 0;
  std::string json = "{";
  const std::vector<SchemeRun> runs = RunSchemes(cfg);
  for (size_t i = 0; i < runs.size(); ++i) {
    const SchemeInfo& info = kSchemes[i];
    const SchemeRun& run = runs[i];
    correct = correct && run.correct;
    attempted += run.e2e.attempts;
    failed += run.e2e.failed;
    setup_total += Median(run.setup_seconds);
    const std::string k = info.key;
    std::printf("  %-4s tps=%.0f p50_us=%.2f p99_us=%.2f (latency "
                "samples=%" PRIu64
                ", %u rounds) long_rows_per_s=%.0f attempts=%" PRIu64
                " failed=%" PRIu64 " tries=%" PRIu64 " (not_found=%" PRIu64
                ") setup_s=%.6f (median of %zu loads)\n",
                info.key, run.e2e.tps, run.e2e.p50_us, run.e2e.p99_us,
                run.e2e.latency_samples, cfg.trace ? 1 : kRounds,
                run.e2e.long_rows_per_s,
                run.e2e.attempts, run.e2e.failed, run.e2e.tries,
                run.e2e.not_found,
                Median(run.setup_seconds), run.setup_seconds.size());
    if (cfg.trace) {
      for (const auto& [name, metric] : run.layers) {
        PrintMetric(&json, k + "." + name, metric.value, metric.unit);
      }
    } else {
      PrintMetric(&json, k + ".tps", run.e2e.tps, "1/s");
      PrintMetric(&json, k + ".p50_us", run.e2e.p50_us, "us");
    }
  }
  if (!cfg.trace) {
    PrintMetric(&json, "setup_s", setup_total, "s");
    PrintMetric(&json, "peak_rss_mb", PeakRssMiB(), "MiB");
  }
  json += "}";
  if (attempted == 0) correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
  return correct ? 0 : 1;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
