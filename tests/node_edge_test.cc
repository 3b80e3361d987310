// Edge cases of the node engine: routing validation, empty plans, wide and
// deep trees, the phase-3 read race, message robustness, and the
// owner-thread check.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"

namespace threev {
namespace {

struct Env {
  explicit Env(size_t nodes, SimNetOptions net_options = {.seed = 77})
      : net(net_options, &metrics), cluster(Opts(nodes), &net, &metrics) {}

  static ClusterOptions Opts(size_t nodes) {
    ClusterOptions options;
    options.num_nodes = nodes;
    return options;
  }

  TxnResult Run(NodeId origin, const TxnSpec& spec) {
    TxnResult result;
    bool done = false;
    cluster.Submit(origin, spec, [&](const TxnResult& r) {
      result = r;
      done = true;
    });
    net.loop().RunUntil([&] { return done; });
    return result;
  }

  Metrics metrics;
  SimNet net;
  Cluster cluster;
};

TEST(NodeEdgeTest, MisroutedSubmissionRejected) {
  Env env(3);
  // Plan rooted at node 1 submitted to node 0: rejected, not silently
  // executed against the wrong node's data.
  TxnSpec spec = TxnBuilder(1).Add("x", 1).Build();
  TxnResult r = env.Run(0, spec);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(env.cluster.node(0).store().VersionsOf("x").empty());
  EXPECT_TRUE(env.cluster.node(1).store().VersionsOf("x").empty());
}

TEST(NodeEdgeTest, SubmitOverloadRoutesToRootNode) {
  Env env(3);
  TxnResult result;
  bool done = false;
  env.cluster.client().Submit(TxnBuilder(2).Add("y", 9).Build(),
                              [&](const TxnResult& r) {
                                result = r;
                                done = true;
                              });
  env.net.loop().RunUntil([&] { return done; });
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(env.cluster.node(2).store().Read("y", 1)->num, 9);
}

TEST(NodeEdgeTest, EmptyTransactionCommits) {
  Env env(2);
  TxnSpec spec;
  spec.root.node = 0;  // no ops, no children
  TxnResult r = env.Run(0, spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.reads.empty());
}

TEST(NodeEdgeTest, WideFanOut) {
  Env env(8);
  TxnBuilder builder(0);
  builder.Add("root", 1);
  for (int i = 0; i < 40; ++i) {
    builder.Child(static_cast<NodeId>(1 + i % 7),
                  {OpAdd("wide" + std::to_string(i), 1)});
  }
  TxnResult r = env.Run(0, builder.Build());
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(env.cluster.node(1).store().Read("wide0", 1)->num, 1);
  EXPECT_EQ(env.cluster.node(7).store().Read("wide6", 1)->num, 1);
  EXPECT_EQ(env.cluster.TotalPendingSubtxns(), 0u);
}

TEST(NodeEdgeTest, DeepChain) {
  Env env(4);
  SubtxnPlan leaf;
  leaf.node = 3;
  leaf.ops = {OpAdd("deep", 1)};
  SubtxnPlan chain = leaf;
  for (int depth = 0; depth < 12; ++depth) {
    SubtxnPlan next;
    next.node = static_cast<NodeId>(depth % 4);
    next.ops = {OpAdd("lvl" + std::to_string(depth), 1)};
    next.children = {chain};
    chain = next;
  }
  TxnSpec spec;
  spec.root = chain;
  TxnResult r = env.Run(spec.root.node, spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(env.cluster.node(3).store().Read("deep", 1)->num, 1);
}

TEST(NodeEdgeTest, ReadChildAtNodeWithLaggingReadVersion) {
  // Phase-3 race: a read root assigned vr_new spawns a child query to a
  // node whose vr is still vr_old. The carried version rules make the
  // child read the (already globally consistent) new version anyway.
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5, .manual = true}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options, &net, &metrics);

  // Install version-1 data directly and set versions as if phase 2 has
  // completed (version 1 consistent).
  cluster.node(0).store().Seed("a", Value{.num = 11, .ids = {}, .str = ""}, 1);
  cluster.node(1).store().Seed("b", Value{.num = 22, .ids = {}, .str = ""}, 1);
  bool advanced = false;
  cluster.coordinator().StartAdvancement([&](Status) { advanced = true; });
  // Run phases 1-2 fully, then deliver phase 3 ONLY to node 0.
  while (net.DeliverMatching(
             -1, -1, static_cast<int>(MsgType::kStartAdvancement)) != 0) {
  }
  // Acks and both counter waves (version 1 is quiescent), but stop before
  // the phase-3 notices.
  for (MsgType t : {MsgType::kStartAdvancementAck, MsgType::kCounterRead,
                    MsgType::kCounterReadReply, MsgType::kCounterRead,
                    MsgType::kCounterReadReply}) {
    while (net.DeliverMatching(-1, -1, static_cast<int>(t)) != 0) {
    }
  }
  // Phase 3 notices are now pending; deliver to node 0 only.
  ASSERT_NE(net.DeliverMatching(
                -1, 0, static_cast<int>(MsgType::kReadVersionAdvance)),
            0u);
  EXPECT_EQ(cluster.node(0).vr(), 1u);
  EXPECT_EQ(cluster.node(1).vr(), 0u);

  TxnResult read;
  bool done = false;
  cluster.Submit(0,
                 TxnBuilder(0).Get("a").Child(1, {OpGet("b")}).Build(),
                 [&](const TxnResult& r) {
                   read = r;
                   done = true;
                 });
  // Deliver the submit and the child query, but NOT node 1's phase-3
  // notice.
  ASSERT_NE(net.DeliverMatching(-1, 0,
                                static_cast<int>(MsgType::kClientSubmit)),
            0u);
  ASSERT_NE(net.DeliverMatching(0, 1,
                                static_cast<int>(MsgType::kSubtxnRequest)),
            0u);
  ASSERT_NE(net.DeliverMatching(1, 0,
                                static_cast<int>(MsgType::kCompletionNotice)),
            0u);
  ASSERT_NE(net.DeliverMatching(-1, -1,
                                static_cast<int>(MsgType::kClientResult)),
            0u);
  ASSERT_TRUE(done);
  EXPECT_EQ(read.version, 1u);
  EXPECT_EQ(read.reads.at("a").num, 11);
  EXPECT_EQ(read.reads.at("b").num, 22);  // carried version beats local vr

  while (!advanced) {
    net.DeliverAll();
    net.loop().Run();
  }
}

TEST(NodeEdgeTest, UnknownMessageTypeIgnored) {
  Env env(1);
  Message m;
  m.type = static_cast<MsgType>(200);
  m.from = 0;
  env.cluster.node(0).HandleMessage(m);  // must not crash
  TxnResult r = env.Run(0, TxnBuilder(0).Add("x", 1).Build());
  EXPECT_TRUE(r.status.ok());
}

TEST(NodeEdgeTest, SingleNodeClusterFullLifecycle) {
  Env env(1);
  for (int i = 0; i < 5; ++i) {
    TxnResult w = env.Run(0, TxnBuilder(0).Add("x", 2).Build());
    EXPECT_TRUE(w.status.ok());
    bool advanced = false;
    env.cluster.coordinator().StartAdvancement(
        [&](Status) { advanced = true; });
    env.net.loop().RunUntil([&] { return advanced; });
  }
  TxnResult r = env.Run(0, TxnBuilder(0).Get("x").Build());
  EXPECT_EQ(r.reads.at("x").num, 10);
  EXPECT_TRUE(env.cluster.CheckInvariants().ok());
}

// A transport whose Send parks the sending thread until released, so a
// test can hold one thread inside a node's handler.
class ParkingNet : public Network {
 public:
  void RegisterEndpoint(NodeId, MessageHandler) override {}
  void Send(NodeId, Message) override {
    in_send.store(true);
    while (!release.load()) std::this_thread::yield();
  }
  void ScheduleAfter(Micros, std::function<void()>) override {}
  Micros Now() const override { return 0; }

  std::atomic<bool> in_send{false};
  std::atomic<bool> release{false};
};

// One thread owns a node: a second thread entering HandleMessage while the
// first is still inside it aborts the process, in every build type.
TEST(NodeDeathTest, TwoThreadsInOneHandlerAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ParkingNet net;
        Node node(NodeOptions{}, &net, nullptr);
        Message probe;
        probe.type = MsgType::kCounterRead;  // replies, so it reaches Send
        probe.from = 1;
        std::thread first([&] { node.HandleMessage(probe); });
        while (!net.in_send.load()) std::this_thread::yield();
        node.HandleMessage(probe);
        net.release.store(true);
        first.join();
      },
      "two threads ran its handler at once");
}

}  // namespace
}  // namespace threev
