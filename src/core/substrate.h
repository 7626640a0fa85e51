// The engine substrate. The paper (Section 5) compares MV/O, MV/L and 1V on
// one engine's storage, clock and log, so that only the concurrency-control
// mechanism differs. Database builds one Substrate from its DatabaseOptions
// and lends it to the engine running the chosen scheme (cc/mv_engine.h,
// sv/sv_engine.h), which must be destroyed first. It holds the counters,
// histograms, catalog, epoch manager, commit clock and logger, and the logic
// both engines share: the Begin-time tracing decision, the commit tracer,
// commit-record framing, and the teardown pass that frees live versions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/port.h"
#include "common/types.h"
#include "log/log_record.h"
#include "log/logger.h"
#include "obs/histogram.h"
#include "storage/table.h"
#include "txn/timestamp.h"
#include "util/epoch.h"

namespace mvstore {

struct DatabaseOptions {
  Scheme scheme = Scheme::kMultiVersionOptimistic;

  /// Logging (paper configuration: asynchronous group commit).
  LogMode log_mode = LogMode::kAsync;
  /// Empty: in-memory byte-counting sink. Otherwise a file path (or, with
  /// log_segment_bytes > 0, a rotating-segment prefix). Existing log data on
  /// the path is preserved: sinks open in append mode, so a reopened
  /// database continues the log rather than truncating history. Use
  /// Database::Open (or RecoverDatabase) to replay that history first.
  std::string log_path;
  /// Durability of file-backed logs. Default (false): batches are flushed
  /// with fflush only — they survive a process crash but NOT an OS crash or
  /// power loss. Set true to fsync every flushed batch (real durability;
  /// with LogMode::kSync, commit then waits on an fsync'd batch). Only
  /// meaningful when log_path is set.
  bool fsync_log = false;
  /// > 0: segmented log — log_path is a prefix producing
  /// `<log_path>.<seq>.seg` files rotated at this size, which is what lets a
  /// completed checkpoint delete (truncate) covered segments. 0: log_path is
  /// one append-only file; checkpoints still work but reclaim nothing.
  uint64_t log_segment_bytes = 0;
  /// Checkpoint file location used by Database::Checkpoint() and by
  /// Database::Open() at recovery. Empty: no checkpointing; recovery is a
  /// full-log replay.
  std::string checkpoint_path;
  /// Worker threads for log replay in Database::Open (the paper's "multiple
  /// log streams" observation: records partition by primary key and replay
  /// in end-timestamp order per key). 1 = serial replay.
  uint32_t recovery_threads = 1;
  /// Group-commit window in microseconds: once the log flusher sees a
  /// pending commit record it waits this long so concurrent committers
  /// coalesce into one flush (one fsync with fsync_log). Amortizes
  /// device-bound commit latency across sessions at the cost of up to this
  /// much added latency per commit. 0 (default) flushes as soon as the
  /// flusher wakes. Counters: log_group_commits (batches flushed),
  /// log_group_size_sum (records across those batches).
  uint32_t group_commit_us = 0;

  /// MV engines: see MVEngineOptions.
  bool honor_locks = true;
  uint32_t gc_interval_us = 2000;
  uint32_t deadlock_interval_us = 1000;

  /// 1V engine: lock-wait timeout (deadlock breaking).
  uint64_t lock_timeout_us = 2000;

  /// Memory subsystem (src/mem/): recycle version slots through per-table
  /// slab allocators, and 1V transactions and Txn handles through pools,
  /// integrated with epoch reclamation (MV transaction objects are always
  /// pooled). Default on; turn off to route these through the global heap
  /// (ASan-style debugging, leak triage). Sanitizer builds (TSan/ASan)
  /// default off (common/port.h) -- recycling hides object lifetimes from
  /// the tools; tests that target the slabs opt back in.
  bool use_slab_allocator = !kSanitizerBuild;

  /// Observability (src/obs/, docs/OBSERVABILITY.md). On: commit-pipeline
  /// phases, txn lifetime, read/scan, GC, checkpoint and recovery latencies
  /// are recorded into striped histograms, exposed through MetricsText /
  /// the kMetrics wire opcode. Off: every Record() is one relaxed load.
  bool enable_latency_histograms = true;
  /// Commits slower than this (microseconds) emit one rate-limited
  /// structured stderr line with the per-phase breakdown; 0 disables.
  uint64_t slow_txn_us = 0;
};

class Substrate {
 public:
  explicit Substrate(const DatabaseOptions& options);
  /// Frees the versions still linked in the indexes.
  ~Substrate();

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  const DatabaseOptions& options() const { return options_; }
  StatsCollector& stats() { return stats_; }
  obs::LatencyHistograms& hists() { return hists_; }
  Catalog& catalog() { return catalog_; }
  Table& table(TableId id) { return catalog_.table(id); }
  EpochManager& epoch() { return epoch_; }
  /// The commit clock: MV end timestamps and 1V log-record timestamps are
  /// drawn from it; recovery and checkpoints read and advance it.
  TimestampGenerator& ts_gen() { return ts_gen_; }
  /// Valid in every LogMode; inert when kDisabled.
  Logger& logger() { return *logger_; }

  /// Begin-time tracing decision: the start ticks of a transaction whose
  /// commit is to be timed, else 0. Each thread traces 1 in 32 of the
  /// transactions it begins (obs::SampleThisTxn); slow_txn_us times all.
  uint64_t SampleStartTicks() {
    return hists_.enabled() && (slow_txn_ticks_ != 0 || obs::SampleThisTxn())
               ? obs::NowTicks()
               : 0;
  }

  /// WriteLog's end_ts for a scheme without end timestamps (1V): the
  /// record draws one from the clock, only when it is written.
  static constexpr Timestamp kDrawFromClock = 0;

  /// Frame one commit record around the ops `emit_ops(LogRecordBuilder&)`
  /// adds and append it. Writes nothing without writes, with logging
  /// disabled, or while recovery pauses it (the record is already on
  /// disk). Returns true when a record was appended.
  template <typename EmitOps>
  bool WriteLog(TxnId txn_id, Timestamp end_ts, bool has_writes,
                const EmitOps& emit_ops) {
    if (!has_writes || logger_->mode() == LogMode::kDisabled ||
        logger_->replay_paused()) {
      return false;
    }
    std::vector<uint8_t>& buffer = ClearedLogBuffer();
    LogRecordBuilder builder(buffer);
    builder.BeginRecord(end_ts != kDrawFromClock ? end_ts : ts_gen_.Next(),
                        txn_id);
    emit_ops(builder);
    builder.EndRecord();
    logger_->Append(buffer);
    return true;
  }

  /// Times one commit's phases into the histograms (docs/OBSERVABILITY.md)
  /// and emits the slow-txn line (obs/slow_txn.h). Built on entry to an
  /// engine's Commit; Validated() once validation and the commit-dependency
  /// wait are done (a scheme without it records no commit_validate),
  /// Logged() right after WriteLog, Finish() once the transaction has
  /// terminated; an aborting commit just drops it. An untimed commit reads
  /// no clock: each mark is one branch.
  class CommitTracer {
   public:
    CommitTracer(Substrate& substrate, TxnId txn_id, uint64_t start_ticks,
                 uint64_t writes)
        : substrate_(substrate),
          txn_id_(txn_id),
          start_ticks_(start_ticks),
          writes_(writes),
          t_enter_(substrate.slow_txn_ticks_ != 0 ||
                           (start_ticks != 0 && substrate.hists_.enabled())
                       ? obs::NowTicks()
                       : 0) {}

    void Validated() {
      if (t_enter_ != 0) t_validated_ = obs::NowTicks();
    }

    /// `appended`: WriteLog's result. Only an appended record waited for
    /// its group commit, which the Logger measured and which is not
    /// log-append time.
    void Logged(bool appended) {
      if (t_enter_ == 0) return;
      group_wait_ticks_ = appended ? Logger::LastGroupWaitTicks() : 0;
      t_logged_ = obs::NowTicks();
    }

    void Finish() {
      if (t_enter_ != 0) Record();
    }

   private:
    void Record();

    Substrate& substrate_;
    const TxnId txn_id_;
    const uint64_t start_ticks_;
    const uint64_t writes_;
    const uint64_t t_enter_;    // 0: untimed
    uint64_t t_validated_ = 0;  // 0: no validation phase
    uint64_t t_logged_ = 0;
    uint64_t group_wait_ticks_ = 0;
  };

 private:
  /// This thread's record encode buffer, emptied.
  static std::vector<uint8_t>& ClearedLogBuffer();

  const DatabaseOptions options_;
  /// First: table slabs, engine pools and the logger count into these
  /// until they die.
  StatsCollector stats_;
  obs::LatencyHistograms hists_;
  /// SlowTxnThresholdTicks(options_.slow_txn_us); 0 = disabled.
  const uint64_t slow_txn_ticks_;
  Catalog catalog_;
  /// After catalog_: draining it frees versions into their tables.
  EpochManager epoch_;
  TimestampGenerator ts_gen_;
  std::unique_ptr<Logger> logger_;
};

}  // namespace mvstore
