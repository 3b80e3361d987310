// Advancement triggers (the paper's "Desired Solution" knobs), each driven
// through AdvanceCoordinator::EnableAutoAdvance's tick and predicate.
#include <gtest/gtest.h>

#include <functional>

#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"

namespace threev {
namespace {

struct Env {
  Env() : net(SimNetOptions{.seed = 4}, &metrics), cluster(Opts(), &net, &metrics) {}

  static ClusterOptions Opts() {
    ClusterOptions options;
    options.num_nodes = 2;
    return options;
  }

  void SubmitUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      cluster.Submit(
          0, TxnBuilder(0).Add("x", 1).Child(1, {OpAdd("y", 1)}).Build(),
          [&](const TxnResult&) { ++completed; });
    }
  }

  uint64_t advancements() { return cluster.coordinator().completed_count(); }

  Metrics metrics;
  SimNet net;
  Cluster cluster;
  size_t completed = 0;
};

// "After N transactions": holds once `n` more transactions committed than
// when it last held (or was made). The coordinator evaluates it only while
// idle, so holding means an advancement begins.
std::function<bool()> AfterCommits(const Metrics& metrics, int64_t n) {
  return [&metrics, n, baseline = metrics.txns_committed.load()]() mutable {
    const int64_t committed = metrics.txns_committed.load();
    if (committed - baseline < n) return false;
    baseline = committed;
    return true;
  };
}

TEST(PolicyTest, TxnCountThresholdTriggersAdvancement) {
  Env env;
  env.cluster.coordinator().EnableAutoAdvance(1'000,
                                              AfterCommits(env.metrics, 10));

  env.SubmitUpdates(9);
  env.net.loop().RunFor(20'000);
  EXPECT_EQ(env.advancements(), 0u) << "below threshold";

  env.SubmitUpdates(5);
  env.net.loop().RunFor(50'000);
  EXPECT_EQ(env.advancements(), 1u);
  EXPECT_EQ(env.cluster.node(0).vr(), 1u);
  env.cluster.coordinator().DisableAutoAdvance();
}

TEST(PolicyTest, ThresholdRearmsAfterEachAdvancement) {
  Env env;
  env.cluster.coordinator().EnableAutoAdvance(1'000,
                                              AfterCommits(env.metrics, 5));
  for (int round = 0; round < 3; ++round) {
    env.SubmitUpdates(6);
    env.net.loop().RunFor(60'000);
  }
  EXPECT_EQ(env.advancements(), 3u);
  EXPECT_EQ(env.cluster.node(0).vr(), 3u);
  env.cluster.coordinator().DisableAutoAdvance();
}

TEST(PolicyTest, MinPeriodRateLimits) {
  Env env;
  // Check every 1 ms, but never start advancements closer together than
  // 1 s: at most one in this test.
  constexpr Micros kMinPeriod = 1'000'000;
  env.cluster.coordinator().EnableAutoAdvance(
      1'000, [&, after_one = AfterCommits(env.metrics, 1),
              last = env.net.Now() - kMinPeriod]() mutable {
        if (env.net.Now() - last < kMinPeriod || !after_one()) return false;
        last = env.net.Now();
        return true;
      });
  for (int round = 0; round < 5; ++round) {
    env.SubmitUpdates(3);
    env.net.loop().RunFor(40'000);
  }
  EXPECT_EQ(env.advancements(), 1u);
  env.cluster.coordinator().DisableAutoAdvance();
}

TEST(PolicyTest, ValueDriftPredicateTrigger) {
  Env env;
  env.cluster.node(0).store().Seed("x", Value{}, 0);
  // "Advance when the update version drifted >= 50 ahead of the read
  // version" - the paper's value-difference policy. SimNet runs the
  // coordinator and the nodes on one thread, so the predicate may read a
  // node's store.
  env.cluster.coordinator().EnableAutoAdvance(1'000, [&]() -> bool {
    Node& node = env.cluster.node(0);
    auto current = node.store().Read("x", node.vu());
    auto readable = node.store().Read("x", node.vr());
    int64_t drift = (current.ok() ? current->num : 0) -
                    (readable.ok() ? readable->num : 0);
    return drift >= 50;
  });

  for (int i = 0; i < 4; ++i) {
    env.cluster.Submit(0, TxnBuilder(0).Add("x", 10).Build(),
                       [](const TxnResult&) {});
  }
  env.net.loop().RunFor(20'000);
  EXPECT_EQ(env.advancements(), 0u) << "drift 40 < 50";

  for (int i = 0; i < 2; ++i) {
    env.cluster.Submit(0, TxnBuilder(0).Add("x", 10).Build(),
                       [](const TxnResult&) {});
  }
  env.net.loop().RunFor(60'000);
  EXPECT_EQ(env.advancements(), 1u);
  // After advancement the drift is back under the threshold.
  EXPECT_EQ(env.cluster.node(0).store().Read("x", 1)->num, 60);
  env.cluster.coordinator().DisableAutoAdvance();
}

// "After a particular update transaction commits" is a StartAdvancement
// call from that transaction's callback.
TEST(PolicyTest, RequestOnceHonorsOneAtATime) {
  Env env;
  AdvanceCoordinator& coord = env.cluster.coordinator();
  EXPECT_TRUE(coord.StartAdvancement());
  EXPECT_FALSE(coord.StartAdvancement()) << "one advancement at a time";
  env.net.loop().Run();
  EXPECT_TRUE(coord.StartAdvancement());
  env.net.loop().Run();
  EXPECT_EQ(env.advancements(), 2u);
}

TEST(PolicyTest, StopPreventsFurtherTriggers) {
  Env env;
  env.cluster.coordinator().EnableAutoAdvance(1'000,
                                              AfterCommits(env.metrics, 1));
  env.cluster.coordinator().DisableAutoAdvance();
  env.SubmitUpdates(10);
  env.net.loop().RunFor(50'000);
  EXPECT_EQ(env.advancements(), 0u);
}

}  // namespace
}  // namespace threev
