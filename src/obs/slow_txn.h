// Slow-transaction log: one structured line per over-threshold commit.
//
// When DatabaseOptions::slow_txn_us > 0, the commit tracer
// (Substrate::CommitTracer, core/substrate.h) fills a CommitTrace with the
// per-phase tick spans it measured for the histograms and calls
// LogSlowTxn() after the transaction terminates.
// Over-threshold commits emit a single key=value line to stderr, e.g.:
//
//   mvstore slow_txn scheme=mv txn=42 total_us=12873 validate_us=11
//       log_append_us=102 group_wait_us=12704 writes=3
//
// (one line; wrapped here for the comment). Emission is rate-limited
// process-wide to ~10 lines/s so a latency storm cannot turn the log into
// its own bottleneck; suppressed lines bump Stat::kSlowTxnSuppressed so
// the scrape still shows the storm's size.
#pragma once

#include <cstdint>

#include "common/counters.h"
#include "common/types.h"

namespace mvstore {
namespace obs {

/// Per-phase tick spans for one commit. Phases a scheme does not have (SV
/// has no validate; async log has no group wait measured) stay zero and
/// are still printed, so the line format is stable for parsers.
struct CommitTrace {
  const char* scheme = "mv";  // "mv" or "sv"
  TxnId txn_id = 0;
  uint64_t total_ticks = 0;
  uint64_t validate_ticks = 0;
  uint64_t log_append_ticks = 0;
  uint64_t group_wait_ticks = 0;
  uint64_t writes = 0;
};

/// Threshold in ticks for a slow_txn_us setting; 0 disables. Calibrates
/// the tick clock (milliseconds, once) — call at construction, not on the
/// commit path.
uint64_t SlowTxnThresholdTicks(uint64_t slow_txn_us);

/// Emits `trace` if the rate limiter admits it; the caller has already
/// compared total_ticks against SlowTxnThresholdTicks(). Returns true when
/// a line was written. `stats` (may be null) takes kSlowTxnLogged /
/// kSlowTxnSuppressed.
bool LogSlowTxn(const CommitTrace& trace, StatsCollector* stats);

}  // namespace obs
}  // namespace mvstore
