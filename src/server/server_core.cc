#include "server/server_core.h"

#include "obs/metrics.h"
#include "server/session.h"

namespace mvstore {

ServerCore::ServerCore(Database& db, ServerCoreOptions options)
    : db_(db), options_(options) {}

ServerCore::~ServerCore() = default;

Session* ServerCore::OpenSession() {
  if (draining()) {
    sessions_refused.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  MutexLock guard(sessions_mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    sessions_refused.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto session = std::make_unique<Session>(db_, *this);
  Session* raw = session.get();
  sessions_.emplace(raw, std::move(session));
  sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void ServerCore::CloseSession(Session* session) {
  if (session == nullptr) return;
  std::unique_ptr<Session> owned;
  {
    MutexLock guard(sessions_mutex_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return;
    owned = std::move(it->second);
    sessions_.erase(it);
  }
  // Destroyed outside the lock: the destructor aborts an open transaction,
  // which can block (lock release, dependency machinery) and must not
  // stall every other connect/disconnect.
}

void ServerCore::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

uint32_t ServerCore::active_sessions() {
  MutexLock guard(sessions_mutex_);
  return static_cast<uint32_t>(sessions_.size());
}

uint32_t ServerCore::sessions_with_open_txn() {
  MutexLock guard(sessions_mutex_);
  uint32_t n = 0;
  for (const auto& [raw, session] : sessions_) {
    if (session->has_open_txn()) ++n;
  }
  return n;
}

std::string ServerCore::StatsText() {
  std::string out;
  auto line = [&out](const char* name, uint64_t value) {
    out += "server.";
    out += name;
    out += "=";
    out += std::to_string(value);
    out += "\n";
  };
  line("sessions_active", active_sessions());
  line("sessions_opened", sessions_opened.load(std::memory_order_relaxed));
  line("sessions_refused", sessions_refused.load(std::memory_order_relaxed));
  line("frames_processed", frames_processed.load(std::memory_order_relaxed));
  line("frames_rejected", frames_rejected.load(std::memory_order_relaxed));
  line("requests_unavailable",
       requests_unavailable.load(std::memory_order_relaxed));
  if (ReplicaGate* gate = replica()) {
    line("repl_follower", 1);
    line("repl_writable", gate->writable() ? 1 : 0);
    line("repl_ready", gate->ready() ? 1 : 0);
    line("repl_replayed_ts", gate->replayed_ts());
  }
  for (const auto& [name, value] : db_.CounterSnapshot()) {
    out += name;
    out += "=";
    out += std::to_string(value);
    out += "\n";
  }
  return out;
}

std::string ServerCore::MetricsText() {
  std::string out;
  // Engine counters: CounterSnapshot is sorted by name (stable contract).
  for (const auto& [name, value] : db_.CounterSnapshot()) {
    obs::AppendPromCounter(&out, "mvstore_" + name + "_total", value);
  }
  // Service counters.
  obs::AppendPromCounter(&out, "mvstore_server_sessions_opened_total",
                         sessions_opened.load(std::memory_order_relaxed));
  obs::AppendPromCounter(&out, "mvstore_server_sessions_refused_total",
                         sessions_refused.load(std::memory_order_relaxed));
  obs::AppendPromCounter(&out, "mvstore_server_frames_processed_total",
                         frames_processed.load(std::memory_order_relaxed));
  obs::AppendPromCounter(&out, "mvstore_server_frames_rejected_total",
                         frames_rejected.load(std::memory_order_relaxed));
  obs::AppendPromCounter(
      &out, "mvstore_server_requests_unavailable_total",
      requests_unavailable.load(std::memory_order_relaxed));
  // Gauges.
  obs::AppendPromGauge(&out, "mvstore_server_sessions_active",
                       active_sessions());
  obs::AppendPromGauge(&out, "mvstore_read_only", db_.read_only() ? 1 : 0);
  if (MVEngine* mv = db_.mv_engine()) {
    obs::AppendPromGauge(&out, "mvstore_gc_pending_versions",
                         static_cast<double>(mv->gc().PendingCount()));
    obs::AppendPromGauge(&out, "mvstore_live_transactions",
                         static_cast<double>(mv->txn_table().Size()));
    const Timestamp now = db_.LastCommitTimestamp();
    obs::AppendPromGauge(
        &out, "mvstore_snapshot_age_timestamps",
        static_cast<double>(now - mv->txn_table().MinActiveBeginTs(now)));
  }
  if (ReplicaGate* gate = replica()) {
    const Timestamp replayed = gate->replayed_ts();
    const Timestamp leader = gate->leader_ts();
    obs::AppendPromGauge(&out, "mvstore_repl_writable",
                         gate->writable() ? 1 : 0);
    obs::AppendPromGauge(&out, "mvstore_repl_ready", gate->ready() ? 1 : 0);
    obs::AppendPromGauge(&out, "mvstore_repl_replayed_ts",
                         static_cast<double>(replayed));
    obs::AppendPromGauge(&out, "mvstore_repl_leader_ts",
                         static_cast<double>(leader));
    // Commit timestamps the follower still has to replay. Timestamps are
    // the engine's logical clock, not wall time.
    obs::AppendPromGauge(
        &out, "mvstore_repl_lag_timestamps",
        leader > replayed ? static_cast<double>(leader - replayed) : 0);
  }
  // Latency histograms, each with _bucket/_sum/_count, quantile gauges and
  // a max gauge (units: seconds).
  obs::LatencyHistograms& hists = db_.hists();
  for (uint32_t h = 0; h < static_cast<uint32_t>(obs::Hist::kNumHists); ++h) {
    const obs::Hist hist = static_cast<obs::Hist>(h);
    obs::AppendPromHistogram(&out, obs::HistName(hist),
                             hists.Snapshot(hist));
  }
  return out;
}

}  // namespace mvstore
