// Tests for the deterministic schedule-exploration fuzzer itself: plan
// generation is a pure function of (seed, quick), runs are bit-reproducible,
// repro artifacts round-trip, drop schedules converge through
// retransmission, and - the reason the subsystem exists - an injected
// protocol bug is caught by the oracle battery and shrunk to a tiny
// schedule.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "threev/fuzz/fuzz.h"
#include "threev/fuzz/plan.h"
#include "threev/fuzz/shrink.h"

namespace threev {
namespace {

using fuzz::BuildPlan;
using fuzz::FaultKind;
using fuzz::FaultSpec;
using fuzz::FilterPlan;
using fuzz::FuzzOptions;
using fuzz::FuzzPlan;
using fuzz::FuzzResult;
using fuzz::PlanFromRepro;
using fuzz::ReproFromJson;
using fuzz::ReproSpec;
using fuzz::ReproToJson;
using fuzz::RunPlan;
using fuzz::Shrink;
using fuzz::ShrinkOutcome;

FuzzOptions ScratchOptions(const std::string& name) {
  FuzzOptions options;
  options.scratch_dir =
      (std::filesystem::path(::testing::TempDir()) / ("threev_fz_" + name))
          .string();
  return options;
}

TEST(FuzzPlanTest, BuildPlanIsPure) {
  for (uint64_t seed : {1ull, 42ull, 987654321ull}) {
    FuzzPlan a = BuildPlan(seed, /*quick=*/false);
    FuzzPlan b = BuildPlan(seed, /*quick=*/false);
    EXPECT_EQ(a.Summary(), b.Summary());
    EXPECT_EQ(a.txns.size(), b.txns.size());
    EXPECT_EQ(a.faults.size(), b.faults.size());
    // quick must derive a different (smaller) plan, not a truncation that
    // accidentally shares the full plan's structure.
    FuzzPlan q = BuildPlan(seed, /*quick=*/true);
    EXPECT_LT(q.txns.size(), a.txns.size());
  }
}

TEST(FuzzPlanTest, ReorderRulesNeverCoexistWithAbortInjection) {
  // FIFO-bypass reordering breaks the compensation model (a compensating
  // child can overtake its original), so the generator must never emit
  // both. 200 seeds x 2 profiles gives every fault-kind roll a chance.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    for (bool quick : {false, true}) {
      FuzzPlan plan = BuildPlan(seed, quick);
      bool reorders = false;
      for (const FaultSpec& f : plan.faults) {
        if (f.kind == FaultKind::kReorderChannel) reorders = true;
      }
      if (reorders) {
        EXPECT_EQ(plan.profile.abort_probability, 0.0)
            << "seed " << seed << " quick " << quick;
      }
    }
  }
}

TEST(FuzzPlanTest, FilterPlanKeepsOnlyListedIndices) {
  FuzzPlan plan = BuildPlan(7, /*quick=*/true);
  ASSERT_GE(plan.txns.size(), 3u);
  FuzzPlan filtered = FilterPlan(plan, {0, 2}, {});
  EXPECT_EQ(filtered.txns.size(), 2u);
  EXPECT_TRUE(filtered.faults.empty());
  EXPECT_EQ(filtered.seed, plan.seed);
  // The kept transactions are the originals, not re-randomized ones.
  EXPECT_EQ(filtered.txns[0].origin, plan.txns[0].origin);
  EXPECT_EQ(filtered.txns[1].origin, plan.txns[2].origin);
}

TEST(FuzzPlanTest, ReproArtifactRoundTrips) {
  ReproSpec repro;
  repro.seed = 123456789;
  repro.quick = true;
  repro.all_txns = false;
  repro.all_faults = false;
  repro.txns = {0, 5, 17};
  repro.faults = {1};
  repro.note = "counter tally mismatch at version 2 [0][1]";
  std::string json = ReproToJson(repro);
  ReproSpec parsed;
  std::string error;
  ASSERT_TRUE(ReproFromJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seed, repro.seed);
  EXPECT_EQ(parsed.quick, repro.quick);
  EXPECT_EQ(parsed.all_txns, repro.all_txns);
  EXPECT_EQ(parsed.txns, repro.txns);
  EXPECT_EQ(parsed.faults, repro.faults);
  EXPECT_EQ(parsed.note, repro.note);

  // PlanFromRepro == FilterPlan(BuildPlan(seed, quick), txns, faults).
  FuzzPlan direct = FilterPlan(BuildPlan(repro.seed, repro.quick),
                               repro.txns, repro.faults);
  EXPECT_EQ(PlanFromRepro(parsed).Summary(), direct.Summary());

  ASSERT_FALSE(ReproFromJson("{\"schema\": \"bogus\"}", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FuzzRunTest, SameSeedSameHistoryHash) {
  // Bit-reproducibility is the contract everything else (repro artifacts,
  // shrinking, corpus regression) stands on. Seed 3's quick plan includes
  // a crash point, so the hash also covers kill/restart scheduling.
  for (bool quick : {true}) {
    FuzzOptions options = ScratchOptions("determinism");
    FuzzResult a = fuzz::RunSeed(3, quick, options);
    FuzzResult b = fuzz::RunSeed(3, quick, options);
    EXPECT_TRUE(a.ok) << a.Summary();
    EXPECT_GT(a.crashes, 0) << "seed 3 quick is expected to kill a node";
    EXPECT_EQ(a.history_hash, b.history_hash);
    EXPECT_EQ(a.virtual_elapsed, b.virtual_elapsed);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.aborted, b.aborted);
  }
}

TEST(FuzzRunTest, SmallCleanSweep) {
  FuzzOptions options = ScratchOptions("sweep");
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FuzzResult result = fuzz::RunSeed(seed, /*quick=*/true, options);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.Summary();
  }
}

// Two runs of one seed at once with the default scratch directory (as two
// concurrent sweeps make) must not share WAL files, and each removes its
// directory when it finishes.
TEST(FuzzRunTest, OneSeedInTwoThreadsWithDefaultOptions) {
  // A quick run takes about a millisecond, so each thread runs the seed
  // many times to make the two overlap.
  constexpr int kRuns = 25;
  const FuzzPlan plan = BuildPlan(17, /*quick=*/true);
  std::vector<FuzzResult> a(kRuns);
  std::vector<FuzzResult> b(kRuns);
  auto sweep = [&plan](std::vector<FuzzResult>* out) {
    for (FuzzResult& r : *out) r = RunPlan(plan, FuzzOptions{});
  };
  std::thread first(sweep, &a);
  std::thread second(sweep, &b);
  first.join();
  second.join();
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(a[i].ok) << a[i].Summary();
    EXPECT_TRUE(b[i].ok) << b[i].Summary();
    EXPECT_EQ(a[i].history_hash, a[0].history_hash);
    EXPECT_EQ(b[i].history_hash, a[0].history_hash);
  }
  const std::string mine = "threev_fuzz_17_q_" + std::to_string(::getpid());
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(mine, 0), 0u)
        << "left behind: " << entry.path();
  }
}

TEST(FuzzRunTest, DropScheduleConvergesThroughRetransmission) {
  // A drop rule with probability 1 drains its whole budget, and the run
  // still converges: every targeted message type has a retransmission
  // path, and the budget stays below the coordinator's retry allowance.
  FuzzPlan plan = BuildPlan(9, /*quick=*/true);
  plan.faults.clear();
  FaultSpec drop;
  drop.kind = FaultKind::kDropRule;
  drop.drop_type = MsgType::kCounterRead;
  drop.probability = 1.0;
  drop.budget = 6;
  plan.faults.push_back(drop);
  FaultSpec drop2;
  drop2.kind = FaultKind::kDropRule;
  drop2.drop_type = MsgType::kStartAdvancementAck;
  drop2.probability = 1.0;
  drop2.budget = 4;
  plan.faults.push_back(drop2);
  FuzzResult result = RunPlan(plan, ScratchOptions("drops"));
  EXPECT_TRUE(result.ok) << result.Summary();
  EXPECT_EQ(result.injected_drops, 10) << "both budgets must fully drain";
}

TEST(FuzzOracleTest, InjectedBugIsCaughtAndShrinksSmall) {
  // Acceptance gate for the whole subsystem: a silently skipped completion
  // counter (test-only NodeOptions flag) must break quiescence /
  // conservation, be caught by the oracles, and shrink to a schedule of
  // at most 10 events.
  FuzzOptions options = ScratchOptions("bug");
  options.injected_bug = FuzzOptions::InjectedBug::kSkipCompletionCounter;
  options.bug_node = 0;
  FuzzPlan plan = BuildPlan(42, /*quick=*/true);

  ShrinkOutcome outcome = Shrink(plan, options);
  ASSERT_TRUE(outcome.shrunk) << "the injected bug was not even detected";
  EXPECT_LE(outcome.events, 10u) << "shrinker left too large a schedule";
  EXPECT_FALSE(outcome.final_result.ok);
  EXPECT_FALSE(outcome.repro.note.empty());

  // The artifact replays to the same failure with the bug present...
  FuzzPlan replay = PlanFromRepro(outcome.repro);
  FuzzResult bad = RunPlan(replay, options);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.history_hash, outcome.final_result.history_hash)
      << "replay of the minimized schedule must be bit-identical";
  // ...and passes on a healthy build (the schedule is innocent, the bug
  // was the point).
  FuzzResult good = RunPlan(replay, ScratchOptions("bug_clean"));
  EXPECT_TRUE(good.ok) << good.Summary();
}

}  // namespace
}  // namespace threev
