// Exact replay of the paper's Table 1 example execution (Section 2.3) and
// the Figure 2 version states, using SimNet's manual mode to reproduce the
// paper's interleaving event by event.
//
// Sites: p=0 (items A, B), q=1 (items D, E), s=2 (item F).
// Update tx i  (at p, version 1): A+=10; children: iq at q (D+=20, E+=30;
//                                 child iqp at p: B+=40), is at s (F+=50).
// Update tx j  (at q, version 2): D+=200; child jp at p (A+=100).
// Read tx x (at p) reads A; read tx y (at q) reads D - both version 0.
#include <gtest/gtest.h>

#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"

namespace threev {
namespace {

constexpr int kSubmit = static_cast<int>(MsgType::kClientSubmit);
constexpr int kSubtxn = static_cast<int>(MsgType::kSubtxnRequest);
constexpr int kNotice = static_cast<int>(MsgType::kCompletionNotice);
constexpr int kStartAdv = static_cast<int>(MsgType::kStartAdvancement);
constexpr int kResult = static_cast<int>(MsgType::kClientResult);

class Table1Test : public ::testing::Test {
 protected:
  Table1Test()
      : net_(SimNetOptions{.manual = true}, &metrics_),
        cluster_(MakeOptions(), &net_, &metrics_) {
    // Initial data, all in version 0 (Figure 2 start state).
    cluster_.node(0).store().Seed("A", Value{});
    cluster_.node(0).store().Seed("B", Value{});
    cluster_.node(1).store().Seed("D", Value{});
    cluster_.node(1).store().Seed("E", Value{});
    cluster_.node(2).store().Seed("F", Value{});
  }

  static ClusterOptions MakeOptions() {
    ClusterOptions options;
    options.num_nodes = 3;
    return options;
  }

  // Shorthand: deliver the oldest held message matching (from,to,type).
  void Deliver(int from, int to, int type) {
    ASSERT_NE(net_.DeliverMatching(from, to, type), 0u)
        << "no held message " << from << "->" << to << " type " << type;
  }

  NodeId client() const { return cluster_.client_id(); }
  NodeId coord() const { return cluster_.coordinator_id(); }

  int64_t R(int node, Version v, NodeId to) {
    return cluster_.node(node).counters().R(v, to);
  }
  int64_t C(int node, Version v, NodeId from) {
    return cluster_.node(node).counters().C(v, from);
  }

  Metrics metrics_;
  SimNet net_;
  Cluster cluster_;
};

TEST_F(Table1Test, ReplaysPaperExecution) {
  const NodeId p = 0, q = 1, s = 2;

  // --- Transaction plans ---------------------------------------------
  SubtxnPlan iqp;  // i -> q -> p
  iqp.node = p;
  iqp.ops = {OpAdd("B", 40)};
  SubtxnPlan iq;
  iq.node = q;
  iq.ops = {OpAdd("D", 20), OpAdd("E", 30)};
  iq.children = {iqp};
  TxnSpec txn_i = TxnBuilder(p).Add("A", 10).ChildPlan(iq).Child(
      s, {OpAdd("F", 50)}).Build();

  TxnSpec txn_j = TxnBuilder(q).Add("D", 200).Child(p, {OpAdd("A", 100)})
                      .Build();
  TxnSpec read_x = TxnBuilder(p).Get("A").Build();
  TxnSpec read_y = TxnBuilder(q).Get("D").Build();

  TxnResult result_i, result_j, result_x, result_y;
  cluster_.Submit(p, txn_i, [&](const TxnResult& r) { result_i = r; });
  cluster_.Submit(p, read_x, [&](const TxnResult& r) { result_x = r; });

  // TIME 1-4: update tx i arrives at p; updates A version 1; issues
  // subtransactions iq and is; request counters bumped before sending.
  Deliver(client(), p, kSubmit);
  EXPECT_EQ(R(p, 1, p), 1);  // R1pp = 1
  EXPECT_EQ(R(p, 1, q), 1);  // R1pq = 1
  EXPECT_EQ(R(p, 1, s), 1);  // R1ps = 1
  EXPECT_EQ(cluster_.node(p).store().VersionsOf("A"),
            (std::vector<Version>{0, 1}));
  EXPECT_EQ(cluster_.node(p).store().Read("A", 1)->num, 10);

  // TIME 5-6: read tx x arrives at p, reads A version 0.
  Deliver(client(), p, kSubmit);
  Deliver(p, client(), kResult);
  EXPECT_EQ(result_x.version, 0u);
  EXPECT_EQ(result_x.reads.at("A").num, 0);

  // TIME 7: is arrives at s, updates F version 1, completes (C1ps = 1).
  Deliver(p, s, kSubtxn);
  EXPECT_EQ(cluster_.node(s).store().Read("F", 1)->num, 50);
  EXPECT_EQ(C(s, 1, p), 1);  // C1ps = 1

  // TIME 8: version advancement begins (messages in flight, not yet
  // delivered anywhere).
  bool advanced = false;
  ASSERT_TRUE(cluster_.coordinator().StartAdvancement(
      [&](Status st) { advanced = st.ok(); }));
  net_.loop().RunFor(0);  // phase 1 begins on the coordinator's own turn

  // TIME 9-10: the advancement notice reaches q first; q switches to
  // update version 2.
  Deliver(coord(), q, kStartAdv);
  EXPECT_EQ(cluster_.node(q).vu(), 2u);
  EXPECT_EQ(cluster_.node(p).vu(), 1u);  // p not notified yet

  // TIME 10-12: update tx j arrives at q, gets version 2, updates D
  // version 2 (copy-on-update from version 0), spawns jp.
  cluster_.Submit(q, txn_j, [&](const TxnResult& r) { result_j = r; });
  Deliver(client(), q, kSubmit);
  EXPECT_EQ(R(q, 2, q), 1);  // R2qq = 1
  EXPECT_EQ(R(q, 2, p), 1);  // R2qp = 1
  EXPECT_EQ(cluster_.node(q).store().VersionsOf("D"),
            (std::vector<Version>{0, 2}));
  EXPECT_EQ(cluster_.node(q).store().Read("D", 2)->num, 200);

  // TIME 13-16: iq (version 1) arrives at q after the switch. D already
  // has a version-2 copy, so iq's write lands in versions 1 AND 2 (the
  // dual write); E has no version-2 copy, so only version 1.
  Deliver(p, q, kSubtxn);
  EXPECT_EQ(cluster_.node(q).store().VersionsOf("D"),
            (std::vector<Version>{0, 1, 2}));
  EXPECT_EQ(cluster_.node(q).store().Read("D", 0)->num, 0);
  EXPECT_EQ(cluster_.node(q).store().Read("D", 1)->num, 20);
  EXPECT_EQ(cluster_.node(q).store().Read("D", 2)->num, 220);
  EXPECT_EQ(cluster_.node(q).store().VersionsOf("E"),
            (std::vector<Version>{0, 1}));
  EXPECT_EQ(cluster_.node(q).store().Read("E", 1)->num, 30);
  EXPECT_EQ(R(q, 1, p), 1);  // R1qp = 1 (iqp issued)
  EXPECT_GE(metrics_.dual_version_writes.load(), 1);

  // TIME 17-18: read tx y arrives at q, still reads D version 0.
  cluster_.Submit(q, read_y, [&](const TxnResult& r) { result_y = r; });
  Deliver(client(), q, kSubmit);
  Deliver(q, client(), kResult);
  EXPECT_EQ(result_y.version, 0u);
  EXPECT_EQ(result_y.reads.at("D").num, 0);

  // TIME 19-20: jp (version 2) arrives at p BEFORE p was notified of the
  // advancement; p infers the advancement from the version-id, advances
  // its update version, and jp updates A version 2. C2qp = 1.
  Deliver(q, p, kSubtxn);
  EXPECT_EQ(cluster_.node(p).vu(), 2u);
  EXPECT_EQ(metrics_.version_inferences.load(), 1);
  EXPECT_EQ(cluster_.node(p).store().VersionsOf("A"),
            (std::vector<Version>{0, 1, 2}));
  EXPECT_EQ(cluster_.node(p).store().Read("A", 2)->num, 110);
  EXPECT_EQ(C(p, 2, q), 1);  // C2qp = 1

  // The explicit advancement notice now arrives at p: already advanced.
  Deliver(coord(), p, kStartAdv);
  EXPECT_EQ(cluster_.node(p).vu(), 2u);
  Deliver(coord(), s, kStartAdv);
  EXPECT_EQ(cluster_.node(s).vu(), 2u);

  // TIME 19-20 (site p, straggler): iqp (version 1) arrives at p, which is
  // already on update version 2; B has no version-2 copy, so the write
  // lands only in version 1. C1qp = 1.
  Deliver(q, p, kSubtxn);
  EXPECT_EQ(cluster_.node(p).store().VersionsOf("B"),
            (std::vector<Version>{0, 1}));
  EXPECT_EQ(cluster_.node(p).store().Read("B", 1)->num, 40);
  EXPECT_EQ(C(p, 1, q), 1);  // C1qp = 1

  // TIME 21-22: jp's completion notice arrives at q; j is complete
  // (C2qq = 1).
  Deliver(p, q, kNotice);
  EXPECT_EQ(C(q, 2, q), 1);  // C2qq = 1
  Deliver(q, client(), kResult);
  EXPECT_TRUE(result_j.status.ok());
  EXPECT_EQ(result_j.version, 2u);

  // TIME 25-26: iqp's completion notice arrives at q; iq is complete
  // (C1pq = 1) and reports to its parent at p.
  Deliver(p, q, kNotice);
  EXPECT_EQ(C(q, 1, p), 1);  // C1pq = 1

  // TIME 23-27: both child notices reach p; i is complete (C1pp = 1).
  Deliver(s, p, kNotice);
  EXPECT_EQ(C(p, 1, p), 0);  // iq still outstanding
  Deliver(q, p, kNotice);
  EXPECT_EQ(C(p, 1, p), 1);  // C1pp = 1
  Deliver(p, client(), kResult);
  EXPECT_TRUE(result_i.status.ok());
  EXPECT_EQ(result_i.version, 1u);

  // "Beyond this point all version data values are stable, all version
  // counters match up." Check every pair for versions 1 and 2.
  EXPECT_EQ(R(p, 1, p), C(p, 1, p));
  EXPECT_EQ(R(p, 1, q), C(q, 1, p));
  EXPECT_EQ(R(p, 1, s), C(s, 1, p));
  EXPECT_EQ(R(q, 1, p), C(p, 1, q));
  EXPECT_EQ(R(q, 2, q), C(q, 2, q));
  EXPECT_EQ(R(q, 2, p), C(p, 2, q));

  // "A coordinator can determine this by means of an asynchronous read of
  // the counters, and then inform each site, asynchronously, of a read
  // version advancement." Deliver everything left: acks, the two-wave
  // counter reads of phases 2 and 4, the read-version switch, and GC.
  net_.DeliverAll();
  net_.loop().Run();
  while (!advanced) {
    net_.DeliverAll();
    net_.loop().Run();
  }
  ASSERT_TRUE(advanced);

  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster_.node(n).vr(), 1u);
    EXPECT_EQ(cluster_.node(n).vu(), 2u);
  }
  // Phase 4 garbage collection: version 0 gone, version 1 readable.
  EXPECT_EQ(cluster_.node(p).store().VersionsOf("A"),
            (std::vector<Version>{1, 2}));
  EXPECT_EQ(cluster_.node(p).store().VersionsOf("B"),
            (std::vector<Version>{1}));
  EXPECT_EQ(cluster_.node(q).store().VersionsOf("D"),
            (std::vector<Version>{1, 2}));
  EXPECT_EQ(cluster_.node(q).store().VersionsOf("E"),
            (std::vector<Version>{1}));
  EXPECT_EQ(cluster_.node(s).store().VersionsOf("F"),
            (std::vector<Version>{1}));

  // A new read now sees version 1: all of i's effects, none of j's.
  TxnResult result_x2;
  cluster_.Submit(p, read_x, [&](const TxnResult& r) { result_x2 = r; });
  net_.DeliverAll();
  EXPECT_EQ(result_x2.version, 1u);
  EXPECT_EQ(result_x2.reads.at("A").num, 10);

  EXPECT_TRUE(cluster_.CheckInvariants().ok());
  EXPECT_LE(cluster_.node(q).store().MaxVersionsObserved(), 3u);
  EXPECT_EQ(cluster_.TotalPendingSubtxns(), 0u);
}

}  // namespace
}  // namespace threev
