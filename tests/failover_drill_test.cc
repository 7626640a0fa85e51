// Failover drill (ctest label: repl).
//
// The headline replication claim, proven end to end: a LIVE follower — not a
// post-mortem mirror — survives its leader being killed at a seeded
// durability failpoint, is promoted, and holds every commit the dead leader
// ever acknowledged.
//
// Topology per iteration: the leader runs in a forked child (opened in
// LogMode::kSync with fsync, hosting a synchronous ReplShipper) so the drill
// can kill the whole leader process mid-write, mid-fsync, mid-rotation,
// mid-checkpoint, and mid-segment-ship. The follower is a Replica in THIS
// process, attached over real TCP, serving read-only snapshot transactions
// through the normal session layer while the leader hammers commits. Child
// writers record every acknowledged commit in an append-only ack ledger
// (raw write(2), same as the chaos drill) before the crash kills them.
//
// After the child dies the parent promotes the follower and checks:
//   1. zero acknowledged-commit loss: every ledger entry is present in the
//      promoted database at >= its acked version with a consistent checksum
//      (asserted whenever the follower was attached continuously from its
//      last confirmed attach to the leader's death — the window in which
//      every ack was provably follower-coupled);
//   2. divergence: a pre-promote copy of the mirror, recovered serially
//      (recovery_threads = 1) by ordinary crash recovery, yields a table
//      byte-identical to the promoted follower's — promote's tail seal and
//      crash recovery's torn-tail truncation agree exactly;
//   3. the session gate: reads work while following, writes are refused
//      kReadOnly, and after Promote the same session path accepts writes.
//
// One designated iteration additionally arms repl.tail.recv as an ERROR in
// the parent, forcing a mid-tail-batch connection drop + reconnect +
// re-attach under live load before the kill lands.
//
// Scale: MVSTORE_REPL_ITERS sets iterations per scheme (default 3; CI runs
// >= 20 on the Release leg).
#include <gtest/gtest.h>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/failpoint.h"
#include "core/database.h"
#include "repl/replica.h"
#include "repl/shipper.h"
#include "server/loopback.h"
#include "server/server_core.h"

namespace mvstore {
namespace {

#if defined(__linux__)

struct Row {
  uint64_t key;
  uint64_t version;
  uint64_t checksum;
};

struct AckRec {
  uint64_t key;
  uint64_t version;
  uint64_t checksum;
};

constexpr uint64_t kKeys = 256;
constexpr TableId kTable = 0;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

uint64_t RowChecksum(uint64_t key, uint64_t version) {
  return SplitMix(key ^ SplitMix(version));
}

uint64_t RowKey(const void* payload) {
  return static_cast<const Row*>(payload)->key;
}

void DefineSchema(Database& db) {
  TableDef def;
  def.name = "drill";
  def.payload_size = sizeof(Row);
  IndexDef primary;
  primary.extractor = RowKey;
  primary.bucket_count = 4 * kKeys;
  primary.unique = true;
  def.indexes.push_back(primary);
  db.CreateTable(std::move(def));
}

DatabaseOptions MakeLeaderOptions(const std::string& dir, Scheme scheme) {
  DatabaseOptions db;
  db.scheme = scheme;
  db.log_mode = LogMode::kSync;
  db.log_path = dir + "/leader/wal";
  db.fsync_log = true;
  db.log_segment_bytes = 32 * 1024;
  db.checkpoint_path = dir + "/leader/ckpt";
  db.group_commit_us = 200;
  return db;
}

DatabaseOptions MakeFollowerOptions(const std::string& dir, Scheme scheme) {
  DatabaseOptions db = MakeLeaderOptions(dir, scheme);
  db.log_path = dir + "/follower/wal";
  db.checkpoint_path = dir + "/follower/ckpt";
  return db;
}

// The leader-kill menu: the chaos drill's durability sites plus the
// segment/tail ship path. All crash the whole leader process.
struct KillSite {
  const char* site;
  failpoint::ActionKind kind;
  uint32_t min_hit;
  uint32_t span;
};

constexpr KillSite kKillSites[] = {
    {"log.append.write", failpoint::ActionKind::kCrash, 4, 120},
    {"log.append.partial", failpoint::ActionKind::kError, 4, 120},
    {"log.append.sync", failpoint::ActionKind::kCrash, 2, 40},
    {"log.fsync", failpoint::ActionKind::kCrash, 1, 24},
    {"log.rotate", failpoint::ActionKind::kCrash, 1, 6},
    {"checkpoint.write", failpoint::ActionKind::kCrash, 1, 3},
    {"checkpoint.rename", failpoint::ActionKind::kCrash, 1, 3},
    {"repl.ship.send", failpoint::ActionKind::kCrash, 1, 80},
};
constexpr size_t kNumKillSites = sizeof(kKillSites) / sizeof(kKillSites[0]);

void WriteAck(int fd, std::mutex* mu, uint64_t key, uint64_t version) {
  AckRec rec{key, version, RowChecksum(key, version)};
  uint8_t buf[sizeof(AckRec)];
  std::memcpy(buf, &rec, sizeof(rec));
  std::lock_guard<std::mutex> lock(*mu);
  size_t done = 0;
  while (done < sizeof(buf)) {
    ssize_t w = ::write(fd, buf + done, sizeof(buf) - done);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    done += static_cast<size_t>(w);
  }
}

void LeaderWorker(Database* db, int ack_fd, std::mutex* ack_mu, uint64_t seed,
                  uint32_t txns, bool checkpointer, std::atomic<bool>* failed) {
  uint64_t rng = seed != 0 ? seed : 1;
  for (uint32_t i = 0; i < txns; ++i) {
    rng = Lcg(rng);
    const uint64_t key = 1 + ((rng >> 33) % kKeys);
    uint64_t version = 0;
    Status s;
    for (int attempt = 0; attempt < 64; ++attempt) {
      s = db->RunTransaction(IsolationLevel::kReadCommitted, [&](Txn* txn) {
        Status us = db->Update(txn, kTable, 0, key, [&](void* p) {
          Row* r = static_cast<Row*>(p);
          r->version += 1;
          version = r->version;
          r->checksum = RowChecksum(key, version);
        });
        if (us.IsNotFound()) {
          version = 1;
          Row r{key, version, RowChecksum(key, version)};
          us = db->Insert(txn, kTable, &r);
        }
        return us;
      });
      if (!s.IsAlreadyExists()) break;
    }
    if (!s.ok()) {
      failed->store(true, std::memory_order_relaxed);
      return;
    }
    WriteAck(ack_fd, ack_mu, key, version);
    if (checkpointer && (i % 250) == 249) (void)db->Checkpoint();
  }
}

/// Leader child: arm the seeded kill, open the database, start the sync
/// shipper, publish the port (atomic rename so the parent never reads a
/// partial write), then hammer commits until the failpoint fires or the
/// budget runs out.
[[noreturn]] void RunLeaderChild(const std::string& dir, Scheme scheme,
                                 const KillSite& site, uint32_t hit,
                                 uint64_t seed, uint32_t txns) {
  failpoint::Action action;
  action.kind = site.kind;
  action.hit = hit;
  failpoint::Arm(site.site, action);

  Status st;
  auto db = Database::Open(MakeLeaderOptions(dir, scheme), DefineSchema, &st);
  if (db == nullptr) std::_Exit(3);

  ShipperOptions sopts;
  // Never drop a laggard inside the drill: the zero-acked-loss claim is only
  // provable while every ack is follower-coupled.
  sopts.ack_timeout_ms = 120000;
  ReplShipper shipper(*db, sopts);
  if (!shipper.Start().ok()) std::_Exit(6);

  {
    const std::string tmp = dir + "/port.tmp";
    std::ofstream out(tmp);
    out << shipper.port() << "\n";
    out.close();
    std::error_code ec;
    std::filesystem::rename(tmp, dir + "/port", ec);
    if (ec) std::_Exit(6);
  }

  // Wait for the parent's follower to attach before opening the commit
  // floodgates — replication is set up before traffic in any real
  // deployment, and it puts the seeded kill inside the interesting window
  // (leader + follower live, stream hot). A kill during the bootstrap pull
  // (repl.ship.send at a low hit) still exercises the pre-attach path.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (shipper.attached_followers() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  int ack_fd =
      ::open((dir + "/acks.bin").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) std::_Exit(4);
  std::mutex ack_mu;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back(LeaderWorker, db.get(), ack_fd, &ack_mu,
                         SplitMix(seed ^ (t + 1)), txns, t == 0, &failed);
  }
  for (auto& th : threads) th.join();
  ::close(ack_fd);
  // Clean exit: the shipper's sync coupling has already guaranteed every
  // acked commit reached the follower, so teardown order is just hygiene.
  shipper.Stop();
  db.reset();
  std::_Exit(failed.load() ? 5 : 0);
}

bool LoadAcks(const std::string& path, std::vector<AckRec>* out) {
  out->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return true;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const size_t count = bytes.size() / sizeof(AckRec);
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AckRec rec;
    std::memcpy(&rec, bytes.data() + i * sizeof(AckRec), sizeof(AckRec));
    out->push_back(rec);
  }
  return true;
}

/// Scan every row of `db` into key -> Row.
testing::AssertionResult ScanRows(Database& db,
                                  std::map<uint64_t, Row>* rows) {
  rows->clear();
  Txn* txn = db.Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
  Status s = db.ScanTable(txn, kTable, [&](const void* p) {
    const Row* r = static_cast<const Row*>(p);
    (*rows)[r->key] = *r;
    return true;
  });
  if (s.ok()) s = db.Commit(txn);
  if (!s.ok()) {
    return testing::AssertionFailure() << "scan failed: " << s.ToString();
  }
  return testing::AssertionSuccess();
}

/// Every acked (key, version) present at >= version with consistent
/// checksums — the zero-acked-loss contract.
testing::AssertionResult VerifyAcksAgainst(
    const std::map<uint64_t, Row>& rows, const std::vector<AckRec>& acks) {
  for (const AckRec& ack : acks) {
    if (ack.checksum != RowChecksum(ack.key, ack.version)) {
      return testing::AssertionFailure()
             << "corrupt ack record for key " << ack.key;
    }
    auto it = rows.find(ack.key);
    if (it == rows.end()) {
      return testing::AssertionFailure()
             << "acked key " << ack.key << " (version " << ack.version
             << ") missing after failover";
    }
    if (it->second.version < ack.version) {
      return testing::AssertionFailure()
             << "acked commit lost: key " << ack.key << " at version "
             << it->second.version << " < acked " << ack.version;
    }
    if (it->second.checksum !=
        RowChecksum(it->second.key, it->second.version)) {
      return testing::AssertionFailure()
             << "row for key " << ack.key << " fails its checksum";
    }
  }
  return testing::AssertionSuccess();
}

uint32_t ItersPerScheme() {
  const char* env = std::getenv("MVSTORE_REPL_ITERS");
  if (env == nullptr || env[0] == '\0') return 3;
  unsigned long v = std::strtoul(env, nullptr, 10);
  return v == 0 ? 1 : static_cast<uint32_t>(v);
}

bool WaitFor(const std::function<bool()>& cond, uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Tracks the forked leader; waitpid reaps exactly once, so the exit status
/// is cached on the first non-blocking poll that sees the death.
struct ChildProc {
  pid_t pid = -1;
  bool reaped = false;
  int wstatus = 0;

  bool Alive() {
    if (reaped) return false;
    int ws = 0;
    if (::waitpid(pid, &ws, WNOHANG) == pid) {
      reaped = true;
      wstatus = ws;
    }
    return !reaped;
  }

  int Wait() {
    if (!reaped) {
      reaped = ::waitpid(pid, &wstatus, 0) == pid;
    }
    return wstatus;
  }
};

class FailoverDrillTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(FailoverDrillTest, PromotedFollowerHoldsEveryAckedCommit) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const Scheme scheme = GetParam();
  const uint32_t iters = ItersPerScheme();
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("mvstore_failover_" + std::string(SchemeName(scheme)) + "_" +
        std::to_string(::getpid())))
          .string();

  uint32_t crashes = 0;
  uint32_t promoted = 0;
  uint32_t loss_checked = 0;
  uint32_t divergence_checked = 0;
  uint64_t rng = SplitMix(0xfa110fe5ull ^ (static_cast<uint64_t>(scheme) << 32));

  for (uint32_t iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::string dir = base + "-" + std::to_string(iter);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/leader", ec);
    std::filesystem::create_directories(dir + "/follower", ec);
    ASSERT_FALSE(ec);

    rng = Lcg(rng);
    const KillSite& site = kKillSites[(rng >> 33) % kNumKillSites];
    rng = Lcg(rng);
    const uint32_t hit = site.min_hit + (rng >> 33) % site.span;
    SCOPED_TRACE(std::string("site ") + site.site + "@" +
                 std::to_string(hit));
    // The mid-tail-batch follower drop + reconnect exercise runs on one
    // designated iteration (arming is parent-side; see below).
    const bool force_reconnect = (iter == iters / 2);

    ChildProc child;
    child.pid = ::fork();
    ASSERT_GE(child.pid, 0);
    if (child.pid == 0) {
      RunLeaderChild(dir, scheme, site, hit, SplitMix(rng ^ iter),
                     /*txns=*/500);
    }

    // Wait for the leader to publish its port; a child killed during its
    // own startup/recovery is a valid (leaderless) outcome.
    const std::string port_path = dir + "/port";
    bool have_port = WaitFor(
        [&] {
          return std::filesystem::exists(port_path) ||
                 !child.Alive();
        },
        15000);
    ASSERT_TRUE(have_port) << "leader neither started nor died";
    if (!std::filesystem::exists(port_path)) {
      const int early = child.Wait();
      ASSERT_TRUE(WIFEXITED(early));
      if (WEXITSTATUS(early) == failpoint::kCrashExitCode) ++crashes;
      std::filesystem::remove_all(dir, ec);
      continue;
    }
    uint16_t port = 0;
    {
      std::ifstream in(port_path);
      int v = 0;
      in >> v;
      port = static_cast<uint16_t>(v);
    }
    ASSERT_NE(port, 0);

    // Live follower in this process.
    std::atomic<bool> attached{false};
    ReplicaOptions ropts;
    ropts.db = MakeFollowerOptions(dir, scheme);
    ropts.define_schema = DefineSchema;
    ropts.leader_port = port;
    ropts.reconnect_ms = 20;
    ropts.heartbeat_timeout_ms = 1500;
    ropts.on_first_attach = [&attached] { attached.store(true); };
    Status st;
    std::unique_ptr<Replica> replica = Replica::Open(ropts, &st);
    ASSERT_NE(replica, nullptr) << st.ToString();

    const bool child_outlived_attach = WaitFor(
        [&] {
          return replica->ready() || replica->failed() ||
                 !child.Alive();
        },
        30000);
    ASSERT_TRUE(child_outlived_attach);
    ASSERT_FALSE(replica->failed()) << "fresh bootstrap must not fail";

    // Coverage window: from the last confirmed attach to the leader's
    // death, every ack was follower-coupled — provided the stream never
    // dropped in between, i.e. attaches() holds at its confirmed value
    // (reconnects() cannot serve here: it keeps growing while the replica
    // re-dials the dead leader).
    uint64_t expected_attaches = replica->attaches();

    // Session-layer reads at the replayed snapshot while the leader churns.
    ServerCore core(replica->db());
    core.SetReplica(replica.get());
    LoopbackTransport transport(core);
    MVClient client(transport);
    uint64_t last_watermark = 0;
    bool write_refused = false;
    if (replica->ready()) {
      for (int readpass = 0; readpass < 20; ++readpass) {
        if (!child.Alive()) break;
        const uint64_t wm = replica->replayed_ts();
        EXPECT_GE(wm, last_watermark) << "replayed_ts went backwards";
        last_watermark = wm;
        ASSERT_TRUE(
            client.Begin(IsolationLevel::kReadCommitted, /*read_only=*/true)
                .ok());
        for (uint64_t key = 1; key <= 8; ++key) {
          Row row{};
          Status gs = client.Get(kTable, 0, key, &row, sizeof(row));
          if (gs.IsNotFound()) continue;
          ASSERT_TRUE(gs.ok()) << gs.ToString();
          EXPECT_EQ(row.checksum, RowChecksum(row.key, row.version))
              << "snapshot read saw a torn row";
        }
        ASSERT_TRUE(client.Commit().ok());
        if (!write_refused) {
          ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
          Row nrow{kKeys + 100, 1, RowChecksum(kKeys + 100, 1)};
          EXPECT_TRUE(client.Insert(kTable, &nrow, sizeof(nrow)).IsReadOnly());
          ASSERT_TRUE(client.Commit().ok());
          write_refused = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }

    if (force_reconnect && replica->ready() && child.Alive()) {
      // Drop the stream mid-tail-batch, then require a full re-attach under
      // live load before the kill lands.
      const uint64_t before = failpoint::Hits("repl.tail.recv");
      failpoint::Action err;
      err.kind = failpoint::ActionKind::kError;
      err.hit = 1;
      failpoint::Arm("repl.tail.recv", err);
      WaitFor(
          [&] {
            return failpoint::Hits("repl.tail.recv") > before ||
                   !child.Alive();
          },
          15000);
      failpoint::Disarm("repl.tail.recv");
      // Confirm re-attach: a tail batch applied with the reconnect count
      // stable again.
      const uint64_t applied = replica->batches_applied();
      if (WaitFor(
              [&] {
                return (replica->batches_applied() > applied &&
                        !replica->failed()) ||
                       !child.Alive();
              },
              30000) &&
          replica->batches_applied() > applied) {
        expected_attaches = replica->attaches();
      } else {
        expected_attaches = ~uint64_t{0};  // never confirmed: not provable
      }
    }

    // Let the leader die (or finish its budget).
    const int final_status = child.Wait();
    ASSERT_TRUE(child.reaped);
    ASSERT_TRUE(WIFEXITED(final_status))
        << "leader died abnormally: " << final_status;
    const int code = WEXITSTATUS(final_status);
    ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
        << "leader exit code " << code;
    if (code == failpoint::kCrashExitCode) ++crashes;

    // The stream is dead; the mirror is static once the replica notices.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const bool provable = attached.load() && !replica->failed() &&
                          replica->attaches() == expected_attaches;

    if (!attached.load()) {
      // Leader died before the follower ever attached: nothing to promote
      // against; the chaos suite covers the leader's own recovery.
      replica->Stop();
      core.SetReplica(nullptr);
      std::filesystem::remove_all(dir, ec);
      continue;
    }

    // Divergence input: copy the mirror BEFORE promote seals its tail.
    const std::string serial_dir = dir + "/serial";
    std::filesystem::create_directories(serial_dir, ec);
    std::filesystem::copy(dir + "/follower", serial_dir,
                          std::filesystem::copy_options::recursive, ec);
    ASSERT_FALSE(ec) << "mirror copy failed";

    ASSERT_TRUE(replica->Promote(/*force=*/false).ok());
    ++promoted;
    EXPECT_TRUE(replica->writable());

    std::map<uint64_t, Row> rows;
    ASSERT_TRUE(ScanRows(replica->db(), &rows));

    if (provable) {
      std::vector<AckRec> acks;
      LoadAcks(dir + "/acks.bin", &acks);
      EXPECT_TRUE(VerifyAcksAgainst(rows, acks))
          << "acked commits: " << acks.size();
      ++loss_checked;
    }

    // Divergence: ordinary serial crash recovery of the mirror copy must
    // reconstruct the exact table the promote produced.
    {
      DatabaseOptions serial = MakeFollowerOptions(dir, scheme);
      serial.log_path = serial_dir + "/wal";
      serial.checkpoint_path = serial_dir + "/ckpt";
      serial.recovery_threads = 1;
      Status sst;
      auto serial_db = Database::Open(serial, DefineSchema, &sst);
      ASSERT_NE(serial_db, nullptr) << sst.ToString();
      std::map<uint64_t, Row> serial_rows;
      ASSERT_TRUE(ScanRows(*serial_db, &serial_rows));
      ASSERT_EQ(serial_rows.size(), rows.size())
          << "serial replay and promote disagree on row count";
      for (const auto& [key, row] : rows) {
        auto it = serial_rows.find(key);
        ASSERT_NE(it, serial_rows.end()) << "key " << key;
        EXPECT_EQ(it->second.version, row.version) << "key " << key;
        EXPECT_EQ(it->second.checksum, row.checksum) << "key " << key;
      }
      ++divergence_checked;
    }

    // The same session now accepts writes: failover is complete.
    ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
    Row nrow{kKeys + 200, 1, RowChecksum(kKeys + 200, 1)};
    ASSERT_TRUE(client.Insert(kTable, &nrow, sizeof(nrow)).ok());
    ASSERT_TRUE(client.Commit().ok());

    core.SetReplica(nullptr);
    replica.reset();
    std::filesystem::remove_all(dir, ec);
  }

  // The run must have exercised the real thing: leaders killed mid-flight,
  // followers promoted, and the zero-loss + divergence checks actually run.
  EXPECT_GT(crashes, 0u) << "no leader was killed; hit counts too high?";
  EXPECT_GT(promoted, 0u) << "no follower was ever promoted";
  EXPECT_GT(loss_checked, 0u) << "zero-loss was never provably checked";
  EXPECT_GT(divergence_checked, 0u);
  RecordProperty("crashes", static_cast<int>(crashes));
  RecordProperty("promoted", static_cast<int>(promoted));
  RecordProperty("loss_checked", static_cast<int>(loss_checked));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FailoverDrillTest,
                         ::testing::Values(Scheme::kSingleVersion,
                                           Scheme::kMultiVersionLocking,
                                           Scheme::kMultiVersionOptimistic),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           switch (info.param) {
                             case Scheme::kSingleVersion:
                               return "SingleVersion";
                             case Scheme::kMultiVersionLocking:
                               return "MultiVersionLocking";
                             default:
                               return "MultiVersionOptimistic";
                           }
                         });

#else  // !__linux__

TEST(FailoverDrillTest, SkippedOnNonLinux) {
  GTEST_SKIP() << "replication is Linux-only";
}

#endif

}  // namespace
}  // namespace mvstore
