// Version advancement correctness: the two-wave quiescence check must
// never declare a version quiescent while any of its subtransactions is
// still executing or in transit (DESIGN.md section 5).
#include <gtest/gtest.h>

#include <string>

#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"

namespace threev {
namespace {

constexpr int kSubmit = static_cast<int>(MsgType::kClientSubmit);
constexpr int kSubtxn = static_cast<int>(MsgType::kSubtxnRequest);
constexpr int kNotice = static_cast<int>(MsgType::kCompletionNotice);
constexpr int kStartAdv = static_cast<int>(MsgType::kStartAdvancement);
constexpr int kStartAdvAck = static_cast<int>(MsgType::kStartAdvancementAck);
constexpr int kCounterRead = static_cast<int>(MsgType::kCounterRead);
constexpr int kCounterReadReply =
    static_cast<int>(MsgType::kCounterReadReply);

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest()
      : net_(SimNetOptions{.manual = true}, &metrics_),
        cluster_(MakeOptions(), &net_, &metrics_) {}

  static ClusterOptions MakeOptions() {
    ClusterOptions options;
    options.num_nodes = 2;
    return options;
  }

  void DeliverAllOf(int type) {
    while (net_.DeliverMatching(-1, -1, type) != 0) {
    }
  }

  Metrics metrics_;
  SimNet net_;
  Cluster cluster_;
};

TEST_F(CoordinatorTest, DoesNotDeclareQuiescenceWithSubtxnInTransit) {
  // Update with a child at node 1; hold the child request in transit.
  TxnSpec spec = TxnBuilder(0).Add("a", 1).Child(1, {OpAdd("b", 1)}).Build();
  bool txn_done = false;
  cluster_.Submit(0, spec, [&](const TxnResult&) { txn_done = true; });
  ASSERT_NE(net_.DeliverMatching(-1, 0, kSubmit), 0u);
  // Root executed; child request 0->1 is now in flight (held).

  bool advanced = false;
  ASSERT_TRUE(cluster_.coordinator().StartAdvancement(
      [&](Status) { advanced = true; }));
  net_.loop().RunFor(0);  // phase 1 begins on the coordinator's own turn
  DeliverAllOf(kStartAdv);
  DeliverAllOf(kStartAdvAck);

  // Phase 2, round 1: wave C then wave R. The in-transit child makes
  // R(1)[0][1] = 1 vs C(1)[0][1] = 0, so the round must NOT match.
  DeliverAllOf(kCounterRead);       // wave C requests
  DeliverAllOf(kCounterReadReply);  // wave C replies -> triggers wave R
  DeliverAllOf(kCounterRead);       // wave R requests
  DeliverAllOf(kCounterReadReply);  // wave R replies -> evaluation
  EXPECT_FALSE(advanced);
  EXPECT_TRUE(cluster_.coordinator().running());
  EXPECT_EQ(cluster_.node(0).vr(), 0u);

  // Now let the transaction finish: child executes, notices flow up.
  ASSERT_NE(net_.DeliverMatching(0, 1, kSubtxn), 0u);
  ASSERT_NE(net_.DeliverMatching(1, 0, kNotice), 0u);
  // Root complete -> result to client.
  net_.DeliverAll();
  EXPECT_TRUE(txn_done);

  // The retry round is scheduled on the virtual clock; run it.
  while (!advanced) {
    net_.loop().Run();
    net_.DeliverAll();
  }
  EXPECT_EQ(cluster_.node(0).vr(), 1u);
  EXPECT_EQ(cluster_.node(1).vr(), 1u);
  EXPECT_GE(metrics_.quiescence_rounds.load(), 2);
}

TEST_F(CoordinatorTest, NewRootsDuringPhaseTwoDoNotBlockIt) {
  bool advanced = false;
  ASSERT_TRUE(cluster_.coordinator().StartAdvancement(
      [&](Status) { advanced = true; }));
  net_.loop().RunFor(0);  // phase 1 begins on the coordinator's own turn
  DeliverAllOf(kStartAdv);
  DeliverAllOf(kStartAdvAck);

  // A new update arrives mid-phase-2: it gets version 2 and must not delay
  // quiescence of version 1 - but it must not be visible to reads either.
  TxnSpec spec = TxnBuilder(0).Add("x", 7).Build();
  bool txn_done = false;
  cluster_.Submit(0, spec, [&](const TxnResult& r) {
    EXPECT_EQ(r.version, 2u);
    txn_done = true;
  });
  ASSERT_NE(net_.DeliverMatching(-1, 0, kSubmit), 0u);

  while (!advanced) {
    net_.loop().Run();
    net_.DeliverAll();
  }
  EXPECT_TRUE(txn_done);
  EXPECT_EQ(cluster_.node(0).vr(), 1u);
  // Version-2 data exists but reads use version 1 (x never existed there).
  TxnResult read;
  bool read_done = false;
  cluster_.Submit(0, TxnBuilder(0).Get("x").Build(), [&](const TxnResult& r) {
    read = r;
    read_done = true;
  });
  net_.DeliverAll();
  ASSERT_TRUE(read_done);
  EXPECT_EQ(read.reads.at("x").num, 0);
}

TEST_F(CoordinatorTest, SecondAdvancementRejectedWhileRunning) {
  ASSERT_TRUE(cluster_.coordinator().StartAdvancement());
  EXPECT_FALSE(cluster_.coordinator().StartAdvancement());
  while (cluster_.coordinator().running()) {
    net_.loop().Run();
    net_.DeliverAll();
  }
  EXPECT_TRUE(cluster_.coordinator().StartAdvancement());
  while (cluster_.coordinator().running()) {
    net_.loop().Run();
    net_.DeliverAll();
  }
  EXPECT_EQ(cluster_.coordinator().completed_count(), 2u);
  EXPECT_EQ(cluster_.node(0).vr(), 2u);
  EXPECT_EQ(cluster_.node(0).vu(), 3u);
}

TEST_F(CoordinatorTest, Phase4WaitsForOldReads) {
  // A read-only transaction with a child held in transit keeps version 0
  // busy: phases 1-3 may complete (updates quiesce), but GC must wait.
  TxnSpec read = TxnBuilder(0).Get("a").Child(1, {OpGet("b")}).Build();
  bool read_done = false;
  cluster_.Submit(0, read, [&](const TxnResult&) { read_done = true; });
  ASSERT_NE(net_.DeliverMatching(-1, 0, kSubmit), 0u);
  // Child query request 0->1 held in transit; version 0 not quiescent.

  cluster_.node(0).store().Seed("a", Value{}, 0);
  cluster_.node(1).store().Seed("b", Value{}, 0);

  bool advanced = false;
  ASSERT_TRUE(cluster_.coordinator().StartAdvancement(
      [&](Status) { advanced = true; }));
  // Let everything flow except the held read child: deliver all messages
  // not of type kSubtxnRequest, plus timer-driven retries, a few times.
  for (int i = 0; i < 30 && !advanced; ++i) {
    while (true) {
      uint64_t id = 0;
      for (const auto& pm : net_.Pending()) {
        if (pm.msg.type != MsgType::kSubtxnRequest) {
          id = pm.id;
          break;
        }
      }
      if (id == 0) break;
      net_.Deliver(id);
    }
    net_.loop().Run();
  }
  EXPECT_FALSE(advanced);  // GC blocked by the version-0 read
  // Reads switched already (phase 3 done): vr is 1.
  EXPECT_EQ(cluster_.node(0).vr(), 1u);
  // Version 0 still present: not garbage-collected.
  EXPECT_EQ(cluster_.node(0).store().VersionsOf("a").front(), 0u);

  // Release the read; advancement completes and GC runs.
  while (!advanced) {
    net_.DeliverAll();
    net_.loop().Run();
  }
  EXPECT_TRUE(read_done);
  EXPECT_EQ(cluster_.node(0).store().VersionsOf("a").front(), 1u);
}

TEST_F(CoordinatorTest, AutoAdvanceTicksRepeatedly) {
  cluster_.coordinator().EnableAutoAdvance(5'000);
  for (int i = 0; i < 200 && cluster_.coordinator().completed_count() < 3;
       ++i) {
    net_.loop().RunFor(2'000);
    net_.DeliverAll();
  }
  EXPECT_GE(cluster_.coordinator().completed_count(), 3u);
  cluster_.coordinator().DisableAutoAdvance();
}

// Disable then re-enable within one period: the first chain's armed tick
// must die rather than run beside the new chain at twice the rate.
TEST(CoordinatorAutoAdvanceTest, ReenableWithinAPeriodKeepsOneTickChain) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 3}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options, &net, &metrics);
  AdvanceCoordinator& coord = cluster.coordinator();
  coord.EnableAutoAdvance(50'000);
  net.loop().RunFor(20'000);
  coord.DisableAutoAdvance();
  coord.EnableAutoAdvance(50'000);
  net.loop().RunFor(500'000);
  // One chain ticks at 70, 120, ..., 470 ms and each advancement takes a
  // few ms, so nine complete (the tick at 520 ms is still running); a
  // second chain at 50, 100, ... ms would nearly double that.
  EXPECT_EQ(coord.completed_count(), 9u);
  coord.DisableAutoAdvance();
}

// Every stage finishes in one 200 us round trip, long before its 1 ms
// retransmit timer fires: by then that timer belongs to a finished stage
// (or advancement) and must match nothing, not re-send the current one.
TEST(CoordinatorRetransmitTest, StaleStageTimersMatchNothing) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5, .min_delay = 100, .mean_extra_delay = 0},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.coordinator_retry_interval = 1'000;
  Cluster cluster(options, &net, &metrics);
  for (int i = 0; i < 5; ++i) {
    bool done = false;
    ASSERT_TRUE(
        cluster.coordinator().StartAdvancement([&](Status) { done = true; }));
    net.loop().RunUntil([&] { return done; });
  }
  net.loop().Run();
  EXPECT_EQ(cluster.coordinator().completed_count(), 5u);
  EXPECT_EQ(metrics.advancement_retransmits.load(), 0);
}

// A stage that ends leaves the one retransmit timer armed for the next
// stage, so advancements that each finish well inside retry_interval cost
// one kTimer for the whole run, not one per stage: back to back, five
// advancements (seven stages each) take about 7 ms of a 10 ms interval.
TEST(CoordinatorRetransmitTest, OneRetransmitTimerServesEveryStage) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5, .min_delay = 100, .mean_extra_delay = 0},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  Cluster cluster(options, &net, &metrics);
  const NodeId id = cluster.coordinator_id() + 2;
  AdvanceCoordinator coord(
      CoordinatorOptions{.id = id, .num_nodes = 3, .retry_interval = 10'000},
      &net, &metrics);
  int timers = 0;
  net.RegisterEndpoint(id, [&](const Message& m) {
    if (m.type == MsgType::kTimer) ++timers;
    coord.HandleMessage(m);
  });
  constexpr int kAdvancements = 5;
  for (int i = 0; i < kAdvancements; ++i) {
    bool done = false;
    ASSERT_TRUE(coord.StartAdvancement([&](Status) { done = true; }));
    net.loop().RunUntil([&] { return done; });
  }
  EXPECT_LT(net.loop().Now(), 10'000);
  net.loop().Run();
  EXPECT_EQ(coord.completed_count(), static_cast<uint64_t>(kAdvancements));
  EXPECT_EQ(metrics.advancement_retransmits.load(), 0);
  // One start timer per advancement, plus the one retransmit timer.
  EXPECT_EQ(timers, kAdvancements + 1);
}

// A node that stays down past the retry budget stalls the stage. The
// coordinator says so once in the log, and its kAdminInspect reply shows
// the spent budget and the stall.
TEST(CoordinatorStallTest, ExhaustedRetriesAreLoggedAndInspectable) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 4}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options, &net, &metrics);
  // A coordinator with a small budget on an endpoint of its own (past the
  // cluster's client); nodes answer whoever asked.
  const NodeId id = cluster.coordinator_id() + 2;
  AdvanceCoordinator coord(CoordinatorOptions{.id = id,
                                              .num_nodes = 2,
                                              .retry_interval = 1'000,
                                              .max_stage_retries = 3},
                           &net, &metrics);
  net.RegisterEndpoint(id, [&](const Message& m) { coord.HandleMessage(m); });
  net.SetEndpointUp(1, false);

  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(coord.StartAdvancement());
  net.loop().Run();
  const std::string log = ::testing::internal::GetCapturedStderr();
  const std::string want =
      "StartAdvancement stage stalled after 3 retransmits; still awaiting "
      "nodes 1\n";
  const size_t at = log.find(want);
  EXPECT_NE(at, std::string::npos) << log;
  EXPECT_EQ(log.find("stalled", at + want.size()), std::string::npos) << log;
  EXPECT_TRUE(coord.running());
  EXPECT_EQ(coord.completed_count(), 0u);
  EXPECT_EQ(metrics.advancement_retransmits.load(), 3);

  NodeInspection got;
  bool replied = false;
  cluster.client().Inspect(id, [&](const NodeInspection& r) {
    got = r;
    replied = true;
  });
  net.loop().Run();
  ASSERT_TRUE(replied);
  EXPECT_EQ(got.StatStr("phase_name"), "switch_update");
  EXPECT_EQ(got.Stat("stage_retries"), 3);
  EXPECT_EQ(got.Stat("stalled"), 1);
}

}  // namespace
}  // namespace threev
