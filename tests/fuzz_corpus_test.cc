// Committed seed corpus: quick-profile seeds whose derived schedules hit
// every crash-point family the generator can draw (all four advancement
// phases plus the Vote / Decision / Prepare 2PC points) and the
// reorder-under-load shape. Each seed once exposed real driver or
// generator behavior during development; replaying them under the full
// oracle battery on every build is the fuzzer's regression net. If a
// protocol change legitimately shifts what a seed derives, re-survey with
// `threev_fuzz --print-plan` and update the table - do not delete seeds.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "threev/fuzz/fuzz.h"
#include "threev/fuzz/plan.h"

namespace threev {
namespace {

struct CorpusSeed {
  uint64_t seed;
  const char* what;  // why this seed is in the corpus
  int64_t min_crashes;
};

const CorpusSeed kCorpus[] = {
    {1, "abort-free reorder/drop rules, no crash", 0},
    {3, "kill during StartAdvancement fan-out", 1},
    {6, "kill during ReadVersionAdvance (phase 2)", 1},
    {7, "kill during CounterRead collection", 1},
    {10, "two kills during GarbageCollect (phase 4)", 2},
    {11, "2PC Vote kill plus GarbageCollect kill", 2},
    {13, "2PC Prepare kill plus CounterRead kill", 2},
    {16, "2PC Decision kill plus Prepare kill", 2},
    {29, "double Decision kill (same txn family)", 2},
    {42, "the injected-bug acceptance seed, healthy here", 0},
    // Seeds 170 and 191 caught a real liveness bug during development:
    // they kill the 2PC root at its own Vote delivery under an active
    // drop rule, so the restarted root's recovery re-broadcast of the
    // presumed-abort decision lost a message - and, being fire-once,
    // stranded prepared participants on their NC locks forever. Fixed by
    // retrying recovery decisions against a per-node ack set (a recovered
    // Node::TwopcRound, resent by ArmTwopcRetry); these seeds pin the fix.
    {170, "root killed at Vote + dropped recovery decision", 2},
    {191, "root killed at Vote + delayed recovery decision", 2},
};

class FuzzCorpusTest : public ::testing::TestWithParam<CorpusSeed> {};

TEST_P(FuzzCorpusTest, SeedPassesOracles) {
  const CorpusSeed& entry = GetParam();
  fuzz::FuzzOptions options;
  options.scratch_dir = (std::filesystem::path(::testing::TempDir()) /
                         ("threev_corpus_" + std::to_string(entry.seed)))
                            .string();
  fuzz::FuzzResult result = fuzz::RunSeed(entry.seed, /*quick=*/true, options);
  EXPECT_TRUE(result.ok) << "corpus seed " << entry.seed << " (" << entry.what
                         << "): " << result.Summary();
  EXPECT_GE(result.crashes, entry.min_crashes)
      << "seed " << entry.seed
      << " no longer derives the schedule it was committed for (" << entry.what
      << "); re-survey with threev_fuzz --print-plan";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzCorpusTest, ::testing::ValuesIn(kCorpus),
    [](const ::testing::TestParamInfo<CorpusSeed>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace threev
