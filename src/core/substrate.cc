#include "core/substrate.h"

#include <algorithm>

#include "log/log_segment.h"
#include "obs/slow_txn.h"

namespace mvstore {

Substrate::Substrate(const DatabaseOptions& options)
    : options_(options),
      hists_(options_.enable_latency_histograms),
      slow_txn_ticks_(obs::SlowTxnThresholdTicks(options_.slow_txn_us)),
      catalog_({options_.use_slab_allocator, &stats_, &epoch_}) {
  LogSink* sink = nullptr;
  if (options_.log_mode != LogMode::kDisabled) {
    if (options_.log_path.empty()) {
      sink = new NullLogSink();
    } else if (options_.log_segment_bytes > 0) {
      sink = new SegmentedLogSink(
          options_.log_path,
          SegmentedLogSink::Options{options_.log_segment_bytes,
                                    options_.fsync_log},
          &stats_);
    } else {
      sink = new FileLogSink(options_.log_path, options_.fsync_log, &stats_);
    }
  }
  logger_ = std::make_unique<Logger>(options_.log_mode, sink,
                                     options_.group_commit_us, &stats_,
                                     &hists_);
}

Substrate::~Substrate() {
  epoch_.DrainAll();
  for (uint32_t tid = 0; tid < catalog_.num_tables(); ++tid) {
    Table& table = catalog_.table(tid);
    if (table.num_indexes() == 0) continue;
    std::vector<Version*> versions;
    table.index(0).ScanAll([&](Version* v) {
      versions.push_back(v);
      return true;
    });
    for (Version* v : versions) {
      table.FreeUnpublishedVersion(v);  // epoch-safe: single-threaded teardown
    }
  }
}

std::vector<uint8_t>& Substrate::ClearedLogBuffer() {
  thread_local std::vector<uint8_t> buffer;
  buffer.clear();
  return buffer;
}

void Substrate::CommitTracer::Record() {
  const uint64_t t_done = obs::NowTicks();
  const bool validates = t_validated_ != 0;
  obs::CommitTrace trace;
  trace.scheme =
      substrate_.options_.scheme == Scheme::kSingleVersion ? "sv" : "mv";
  trace.txn_id = txn_id_;
  trace.total_ticks = t_done - t_enter_;
  trace.validate_ticks = validates ? t_validated_ - t_enter_ : 0;
  const uint64_t log_span = t_logged_ - (validates ? t_validated_ : t_enter_);
  trace.log_append_ticks = log_span - std::min(log_span, group_wait_ticks_);
  trace.group_wait_ticks = group_wait_ticks_;
  trace.writes = writes_;
  obs::LatencyHistograms& hists = substrate_.hists_;
  hists.Record(obs::Hist::kCommitTotal, trace.total_ticks);
  if (validates) hists.Record(obs::Hist::kCommitValidate, trace.validate_ticks);
  hists.Record(obs::Hist::kCommitLogAppend, trace.log_append_ticks);
  if (start_ticks_ != 0) {
    hists.Record(obs::Hist::kTxnLifetime, t_done - start_ticks_);
  }
  const uint64_t slow_ticks = substrate_.slow_txn_ticks_;
  if (slow_ticks != 0 && trace.total_ticks >= slow_ticks) {
    obs::LogSlowTxn(trace, &substrate_.stats_);
  }
}

}  // namespace mvstore
