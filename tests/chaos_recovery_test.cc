// Chaos recovery harness (ctest label: chaos).
//
// Runs seeded chaos drills (src/chaos/chaos_drill.h) for every scheme: each
// drill forks a child workload, kills it at a randomly armed durability
// failpoint (log append/fsync/rotation, checkpoint write/publish), recovers,
// and verifies that no acknowledged commit was lost and no state became
// unrecoverable.
//
// Scale: MVSTORE_CHAOS_ITERS sets drills per scheme (default 3 for local
// runs). Each drill is `cycles` crash/recover rounds, so CI's
// MVSTORE_CHAOS_ITERS=23 yields 23 x 3 cycles x 3 schemes = 207 seeded
// kill-at-a-random-failpoint iterations per run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "chaos/chaos_drill.h"
#include "common/failpoint.h"

namespace mvstore {
namespace {

uint32_t DrillsPerScheme() {
  const char* env = std::getenv("MVSTORE_CHAOS_ITERS");
  if (env == nullptr || env[0] == '\0') return 3;
  unsigned long v = std::strtoul(env, nullptr, 10);
  return v == 0 ? 1 : static_cast<uint32_t>(v);
}

class ChaosRecoveryTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ChaosRecoveryTest, AcknowledgedCommitsSurviveRandomCrashes) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const Scheme scheme = GetParam();
  const uint32_t drills = DrillsPerScheme();
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("mvstore_chaos_" + std::string(SchemeName(scheme)) + "_" +
        std::to_string(::getpid())))
          .string();

  uint32_t total_crashes = 0;
  uint64_t total_acked = 0;
  for (uint32_t i = 0; i < drills; ++i) {
    chaos::DrillOptions options;
    options.scheme = scheme;
    options.seed = 1000 + i;  // fixed seed base: failures reproduce exactly
    options.dir = base + "-" + std::to_string(options.seed);
    chaos::DrillReport report;
    Status s = chaos::RunDrill(options, &report);
    if (s.IsUnavailable()) GTEST_SKIP() << "fork() unsupported here";
    ASSERT_TRUE(s.ok()) << "harness error: " << s.ToString();
    ASSERT_TRUE(report.failure.empty()) << report.failure;
    EXPECT_EQ(report.cycles_run, options.cycles);
    total_crashes += report.crashes;
    total_acked += report.acked_commits;
    std::error_code ec;
    std::filesystem::remove_all(options.dir, ec);  // keep /tmp bounded
  }
  // The drills must actually have exercised crash recovery and verified
  // real acknowledged commits — an all-clean-exit run would be vacuous.
  EXPECT_GT(total_crashes, 0u) << "no drill crashed; hit counts too high?";
  EXPECT_GT(total_acked, 0u);
  RecordProperty("crashes", static_cast<int>(total_crashes));
}

// Leader-kill -> follower-verify cycles: the same drill with a live
// in-process replica following the leader (DrillOptions::repl). The crash
// menu gains the repl failpoints (repl.ship.send, repl.tail.recv), and every
// cycle whose follower had attached also proves the acked set present on
// the follower's recovered mirror plus byte-prefix agreement of the
// mirrored segments — the promote-would-lose-nothing invariant. The full
// promote path (seal + go-writable + serve writes) runs in
// failover_drill_test (label: repl).
TEST_P(ChaosRecoveryTest, AcknowledgedCommitsSurviveLeaderKills) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const Scheme scheme = GetParam();
  // Repl cycles are slower (every commit waits on the follower's fsync):
  // fewer drills, smaller budgets.
  const uint32_t drills = (DrillsPerScheme() + 2) / 3;
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("mvstore_chaos_repl_" + std::string(SchemeName(scheme)) + "_" +
        std::to_string(::getpid())))
          .string();

  uint32_t total_crashes = 0;
  uint32_t total_follower_verified = 0;
  for (uint32_t i = 0; i < drills; ++i) {
    chaos::DrillOptions options;
    options.scheme = scheme;
    options.repl = true;
    options.seed = 7000 + i;
    options.txns_per_cycle = 500;
    options.dir = base + "-" + std::to_string(options.seed);
    chaos::DrillReport report;
    Status s = chaos::RunDrill(options, &report);
    if (s.IsUnavailable()) GTEST_SKIP() << "fork() unsupported here";
    ASSERT_TRUE(s.ok()) << "harness error: " << s.ToString();
    ASSERT_TRUE(report.failure.empty()) << report.failure;
    EXPECT_EQ(report.cycles_run, options.cycles);
    total_crashes += report.crashes;
    total_follower_verified += report.follower_verified;
    std::error_code ec;
    std::filesystem::remove_all(options.dir, ec);
  }
  EXPECT_GT(total_crashes, 0u) << "no drill crashed; hit counts too high?";
  // At least one cycle must have made it to attach, or the follower half of
  // the verification never ran and the test is vacuous.
  EXPECT_GT(total_follower_verified, 0u)
      << "no cycle reached follower attach";
  RecordProperty("follower_verified",
                 static_cast<int>(total_follower_verified));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ChaosRecoveryTest,
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

}  // namespace
}  // namespace mvstore
