// Observability acceptance: a traced SimNet cluster must produce a span
// tree that chains one update transaction across >= 3 nodes and covers a
// full 4-phase advancement, and the kAdminInspect probe must round-trip on
// all three transports (SimNet, ThreadNet, and TcpNet over real sockets -
// TcpNet's local-delivery bypass means only a genuinely remote peer
// exercises the wire path).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "threev/common/wait_group.h"
#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"
#include "threev/net/tcp_net.h"
#include "threev/net/thread_net.h"
#include "threev/trace/trace.h"
#include "test_ports.h"

namespace threev {
namespace {

TEST(TraceTest, ClusterTraceChainsAcrossNodesAndAdvancement) {
  Tracer tracer;
  tracer.set_enabled(true);
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 11, .tracer = &tracer}, &metrics);
  ClusterOptions options;
  options.num_nodes = 4;
  options.tracer = &tracer;
  Cluster cluster(options, &net, &metrics);

  // One update fanning out to two children: root at node 0, subtxns at
  // nodes 1 and 2.
  TxnResult result;
  bool done = false;
  cluster.Submit(0,
                 TxnBuilder(0)
                     .Add("bal@0", 10)
                     .Child(1, {OpAdd("bal@1", 20)})
                     .Child(2, {OpAdd("bal@2", 30)})
                     .Build(),
                 [&](const TxnResult& r) {
                   result = r;
                   done = true;
                 });
  net.loop().Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.status.ok());

  bool advanced = false;
  ASSERT_TRUE(cluster.coordinator().StartAdvancement(
      [&](Status s) { advanced = s.ok(); }));
  net.loop().Run();
  ASSERT_TRUE(advanced);

  std::vector<TraceRecord> recs = tracer.Snapshot();
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(tracer.dropped(), 0u);

  // The client request span roots the transaction's trace.
  uint64_t trace_id = 0;
  for (const auto& r : recs) {
    if (r.op == TraceOp::kClientRequest && r.kind == TraceKind::kBegin) {
      trace_id = r.trace_id;
    }
  }
  ASSERT_NE(trace_id, 0u);

  // Every begin span of that trace, indexed by span id, so parent links can
  // be resolved.
  std::unordered_map<uint64_t, const TraceRecord*> begins;
  for (const auto& r : recs) {
    if (r.kind == TraceKind::kBegin && r.trace_id == trace_id) {
      begins[r.span_id] = &r;
    }
  }

  // Execution spans (root txn + subtxns) of the one trace land on >= 3
  // distinct node tracks, and every one of them has a resolvable parent in
  // the same trace - the cross-node chain the wire context propagates.
  std::set<NodeId> exec_nodes;
  for (const auto& [span_id, r] : begins) {
    if (r->op != TraceOp::kTxn && r->op != TraceOp::kSubtxn) continue;
    exec_nodes.insert(r->node);
    ASSERT_NE(r->parent_span_id, 0u) << "unparented span on node " << r->node;
    EXPECT_TRUE(begins.count(r->parent_span_id))
        << "span on node " << r->node << " parented outside the trace";
  }
  EXPECT_GE(exec_nodes.size(), 3u);

  // The transports recorded send/recv instants carrying the same context.
  size_t sends = 0, recvs = 0;
  for (const auto& r : recs) {
    if (r.trace_id != trace_id) continue;
    if (r.op == TraceOp::kMsgSend) ++sends;
    if (r.op == TraceOp::kMsgRecv) ++recvs;
  }
  EXPECT_GE(sends, 2u);  // at least the two subtxn requests
  EXPECT_GE(recvs, 2u);

  // One full advancement: phases 1..4 each begin and end exactly once, all
  // under one kAdvancement umbrella span.
  std::multiset<int64_t> phase_begins, phase_ends;
  size_t adv_begin = 0, adv_end = 0;
  for (const auto& r : recs) {
    if (r.op == TraceOp::kAdvancePhase) {
      if (r.kind == TraceKind::kBegin) phase_begins.insert(r.arg);
      if (r.kind == TraceKind::kEnd) phase_ends.insert(r.arg);
    }
    if (r.op == TraceOp::kAdvancement) {
      adv_begin += r.kind == TraceKind::kBegin;
      adv_end += r.kind == TraceKind::kEnd;
    }
  }
  EXPECT_EQ(phase_begins, (std::multiset<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(phase_ends, (std::multiset<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(adv_begin, 1u);
  EXPECT_EQ(adv_end, 1u);

  // The dump layer renders it; schema details are tools/check_trace_json.py
  // territory (wired over the simulate_cli fixture in ctest).
  std::string json = tracer.ChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("phase4_drain_gc"), std::string::npos);
  EXPECT_NE(json.find("subtxn"), std::string::npos);
  std::string path = ::testing::TempDir() + "/trace_test_dump.json";
  EXPECT_TRUE(tracer.WriteChromeJson(path));
}

TEST(TraceTest, InspectAllOnSimNetReportsProtocolState) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  Cluster cluster(options, &net, &metrics);

  bool done = false;
  cluster.Submit(0,
                 TxnBuilder(0)
                     .Add("k@0", 1)
                     .Child(1, {OpAdd("k@1", 1)})
                     .Build(),
                 [&](const TxnResult&) { done = true; });
  net.loop().Run();
  ASSERT_TRUE(done);

  std::vector<NodeInspection> report;
  cluster.InspectAll([&](std::vector<NodeInspection> r) {
    report = std::move(r);
  });
  net.loop().Run();

  // Nodes 0..2 plus the coordinator, in endpoint order.
  ASSERT_EQ(report.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    const NodeInspection& n = report[i];
    EXPECT_EQ(n.node, static_cast<NodeId>(i));
    EXPECT_EQ(n.Stat("vu"), 1);
    EXPECT_EQ(n.Stat("vr"), 0);
    EXPECT_EQ(n.Stat("pending_subtxns"), 0);
    EXPECT_EQ(n.StatStr("mode"), "pure3v");
    EXPECT_EQ(n.Stat("counters_version"), 1);
    EXPECT_FALSE(n.ToString().empty());
  }
  const NodeInspection& coord = report[3];
  EXPECT_EQ(coord.node, cluster.coordinator_id());
  EXPECT_EQ(coord.StatStr("phase_name"), "idle");
  EXPECT_EQ(coord.Stat("vu_view"), 1);

  // Counter row R[origin] for version 1 reflects the committed root +
  // child: node 0 initiated one subtxn tree rooted locally.
  bool saw_counter = false;
  for (const auto& [node, count] : report[0].counters_r) {
    if (node == 0 && count > 0) saw_counter = true;
  }
  EXPECT_TRUE(saw_counter);
}

TEST(TraceTest, AdminInspectOverThreadNet) {
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options, &net, &metrics);
  net.Start();

  WaitGroup wg;
  wg.Add(2);
  NodeInspection node_insp, coord_insp;
  cluster.client().Inspect(0, [&](const NodeInspection& r) {
    node_insp = r;
    wg.Done();
  });
  cluster.client().Inspect(cluster.coordinator_id(),
                           [&](const NodeInspection& r) {
                             coord_insp = r;
                             wg.Done();
                           });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));
  EXPECT_EQ(node_insp.node, 0u);
  EXPECT_EQ(node_insp.Stat("vu"), 1);
  EXPECT_TRUE(node_insp.HasStat("store_keys"));
  EXPECT_EQ(coord_insp.node, cluster.coordinator_id());
  EXPECT_EQ(coord_insp.StatStr("phase_name"), "idle");
  net.Stop();
}

TEST(TraceTest, AdminInspectOverTcpSockets) {
  // Two TcpNet processes-in-miniature: node 0 on its own instance, the
  // client on another, so the probe to node 0 crosses a real socket (a
  // same-instance probe would take TcpNet's local bypass and never touch
  // the codec).
  constexpr NodeId kNode0 = 0, kCoord = 1, kClient = 2;
  const std::vector<uint16_t> ports = FreePorts(2);
  std::map<NodeId, std::string> peers = {
      {kNode0, "127.0.0.1:" + std::to_string(ports[0])},
      {kCoord, "127.0.0.1:" + std::to_string(ports[1])},
      {kClient, "127.0.0.1:" + std::to_string(ports[1])},
  };
  Metrics metrics;
  TcpNet net0(TcpNetOptions{.peers = peers, .listen_port = ports[0]}, &metrics);
  TcpNet net1(TcpNetOptions{.peers = peers, .listen_port = ports[1]}, &metrics);

  NodeOptions nopts;
  nopts.id = kNode0;
  nopts.num_nodes = 1;
  Node node0(nopts, &net0, &metrics);
  net0.RegisterEndpoint(kNode0,
                        [&](const Message& m) { node0.HandleMessage(m); });

  CoordinatorOptions copts;
  copts.id = kCoord;
  copts.num_nodes = 1;
  AdvanceCoordinator coordinator(copts, &net1, &metrics);
  net1.RegisterEndpoint(kCoord, [&](const Message& m) {
    coordinator.HandleMessage(m);
  });
  Client client(kClient, &net1);
  net1.RegisterEndpoint(kClient,
                        [&](const Message& m) { client.HandleMessage(m); });

  ASSERT_TRUE(net0.Start().ok());
  ASSERT_TRUE(net1.Start().ok());

  WaitGroup wg;
  wg.Add(2);
  NodeInspection remote, local;
  client.Inspect(kNode0, [&](const NodeInspection& r) {
    remote = r;  // crossed the wire: encode -> TCP -> decode
    wg.Done();
  });
  client.Inspect(kCoord, [&](const NodeInspection& r) {
    local = r;  // same-instance local dispatch
    wg.Done();
  });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(15'000)));

  EXPECT_EQ(remote.node, kNode0);
  EXPECT_EQ(remote.Stat("vu"), 1);
  EXPECT_EQ(remote.Stat("vr"), 0);
  EXPECT_EQ(remote.StatStr("mode"), "pure3v");
  EXPECT_TRUE(remote.HasStat("counters_version"));
  EXPECT_EQ(local.node, kCoord);
  EXPECT_EQ(local.StatStr("phase_name"), "idle");
  EXPECT_EQ(local.Stat("epoch"), 0);

  net0.Stop();
  net1.Stop();
}

}  // namespace
}  // namespace threev
