// Experiments E-T1 and E-F2: replays the paper's Table 1 execution
// sequence event by event (via the manually-stepped simulated network) and
// prints both the event narrative with live counter values and the
// Figure 2 per-site version snapshots at the same four points in time.
//
// Deltas used: i adds A+=10, D+=20, E+=30, B+=40, F+=50; j adds D+=200,
// A+=100 - so every version copy in Figure 2 is identifiable by value.
#include <cstdio>

#include "threev/core/cluster.h"
#include "threev/net/sim_net.h"

using namespace threev;

namespace {

constexpr int kSubmit = static_cast<int>(MsgType::kClientSubmit);
constexpr int kSubtxn = static_cast<int>(MsgType::kSubtxnRequest);
constexpr int kNotice = static_cast<int>(MsgType::kCompletionNotice);
constexpr int kStartAdv = static_cast<int>(MsgType::kStartAdvancement);
constexpr int kResult = static_cast<int>(MsgType::kClientResult);

struct Replay {
  Metrics metrics;
  SimNet net{SimNetOptions{.manual = true}, &metrics};
  Cluster cluster;

  Replay() : cluster(Options(), &net, &metrics) {
    cluster.node(0).store().Seed("A", Value{});
    cluster.node(0).store().Seed("B", Value{});
    cluster.node(1).store().Seed("D", Value{});
    cluster.node(1).store().Seed("E", Value{});
    cluster.node(2).store().Seed("F", Value{});
  }

  static ClusterOptions Options() {
    ClusterOptions options;
    options.num_nodes = 3;
    return options;
  }

  void Deliver(int from, int to, int type) {
    if (net.DeliverMatching(from, to, type) == 0) {
      std::printf("  !! expected message %d->%d type %d missing\n", from, to,
                  type);
    }
  }

  void Snapshot(const char* when) {
    std::printf("\n  Figure 2 - %s\n", when);
    std::printf("  %-8s", "");
    const char* items[] = {"A", "B", "D", "E", "F"};
    int sites[] = {0, 0, 1, 1, 2};
    std::printf("%8s %8s %8s %8s %8s\n", "A@p", "B@p", "D@q", "E@q", "F@s");
    for (Version v = 3; v-- > 0;) {
      std::printf("  v%-7u", v);
      for (int i = 0; i < 5; ++i) {
        auto dump = cluster.node(sites[i]).store().DumpItem(items[i]);
        auto it = dump.find(v);
        if (it == dump.end()) {
          std::printf("%8s", "-");
        } else {
          std::printf("%8lld", static_cast<long long>(it->second.num));
        }
      }
      std::printf("\n");
    }
  }

  int64_t R(int node, Version v, NodeId to) {
    return cluster.node(node).counters().R(v, to);
  }
  int64_t C(int node, Version v, NodeId from) {
    return cluster.node(node).counters().C(v, from);
  }
};

}  // namespace

int main() {
  std::printf("=== E-T1: Table 1 example execution sequence ===\n");
  Replay r;
  const NodeId p = 0, q = 1, s = 2;
  NodeId client = r.cluster.client_id();
  NodeId coord = r.cluster.coordinator_id();

  SubtxnPlan iqp;
  iqp.node = p;
  iqp.ops = {OpAdd("B", 40)};
  SubtxnPlan iq;
  iq.node = q;
  iq.ops = {OpAdd("D", 20), OpAdd("E", 30)};
  iq.children = {iqp};
  TxnSpec txn_i =
      TxnBuilder(p).Add("A", 10).ChildPlan(iq).Child(s, {OpAdd("F", 50)})
          .Build();
  TxnSpec txn_j =
      TxnBuilder(q).Add("D", 200).Child(p, {OpAdd("A", 100)}).Build();

  TxnResult rx, ry;
  r.cluster.Submit(p, txn_i, [](const TxnResult&) {});
  r.cluster.Submit(p, TxnBuilder(p).Get("A").Build(),
                   [&](const TxnResult& res) { rx = res; });

  r.Snapshot("start state (all data in version 0)");

  std::printf("\nt01-04 [p] update tx i arrives; updates A version 1;"
              " issues iq -> q, is -> s\n");
  r.Deliver(client, p, kSubmit);
  std::printf("        R1pp=%lld R1pq=%lld R1ps=%lld, A(1)=%lld\n",
              (long long)r.R(p, 1, p), (long long)r.R(p, 1, q),
              (long long)r.R(p, 1, s),
              (long long)r.cluster.node(p).store().Read("A", 1)->num);

  std::printf("t05-06 [p] read tx x arrives; reads A version 0\n");
  r.Deliver(client, p, kSubmit);
  r.Deliver(p, client, kResult);
  std::printf("        x saw A=%lld at version %u\n",
              (long long)rx.reads.at("A").num, rx.version);

  std::printf("t07    [s] is arrives; updates F version 1; C1ps=%lld->",
              (long long)r.C(s, 1, p));
  r.Deliver(p, s, kSubtxn);
  std::printf("%lld\n", (long long)r.C(s, 1, p));

  std::printf("t08    [coord] version advancement begins (notices sent)\n");
  bool advanced = false;
  r.cluster.coordinator().StartAdvancement([&](Status) { advanced = true; });
  r.net.loop().RunFor(0);  // phase 1 begins on the coordinator's own turn

  std::printf("t09-10 [q] advancement notice arrives; q: vu 1 -> 2\n");
  r.Deliver(coord, q, kStartAdv);

  std::printf("t10-12 [q] update tx j arrives; gets version 2; updates D"
              " version 2; issues jp -> p\n");
  r.cluster.Submit(q, txn_j, [](const TxnResult&) {});
  r.Deliver(client, q, kSubmit);
  std::printf("        R2qq=%lld R2qp=%lld, D(2)=%lld\n",
              (long long)r.R(q, 2, q), (long long)r.R(q, 2, p),
              (long long)r.cluster.node(q).store().Read("D", 2)->num);

  std::printf("t13-16 [q] iq (version 1) arrives after the switch:"
              " D updated in versions 1 AND 2; E only in version 1\n");
  r.Deliver(p, q, kSubtxn);
  std::printf("        D(1)=%lld D(2)=%lld E(1)=%lld R1qp=%lld"
              " dual_writes=%lld\n",
              (long long)r.cluster.node(q).store().Read("D", 1)->num,
              (long long)r.cluster.node(q).store().Read("D", 2)->num,
              (long long)r.cluster.node(q).store().Read("E", 1)->num,
              (long long)r.R(q, 1, p),
              (long long)r.metrics.dual_version_writes.load());

  std::printf("t17-18 [q] read tx y arrives; still reads D version 0\n");
  r.cluster.Submit(q, TxnBuilder(q).Get("D").Build(),
                   [&](const TxnResult& res) { ry = res; });
  r.Deliver(client, q, kSubmit);
  r.Deliver(q, client, kResult);
  std::printf("        y saw D=%lld at version %u\n",
              (long long)ry.reads.at("D").num, ry.version);
  r.Snapshot("after time 12/18 (j and iq executed)");

  std::printf("\nt19-20 [p] jp (version 2) arrives BEFORE p was notified:"
              " p infers the advancement (vu 1 -> 2); jp updates A v2\n");
  r.Deliver(q, p, kSubtxn);
  std::printf("        p.vu=%u A(2)=%lld C2qp=%lld\n", r.cluster.node(p).vu(),
              (long long)r.cluster.node(p).store().Read("A", 2)->num,
              (long long)r.C(p, 2, q));
  std::printf("t..    [p,s] explicit advancement notices arrive"
              " (p already advanced)\n");
  r.Deliver(coord, p, kStartAdv);
  r.Deliver(coord, s, kStartAdv);

  std::printf("t19-20 [p] straggler iqp (version 1) arrives; B has no v2"
              " copy: updates version 1 only; C1qp=%lld->",
              (long long)r.C(p, 1, q));
  r.Deliver(q, p, kSubtxn);
  std::printf("%lld, B(1)=%lld\n", (long long)r.C(p, 1, q),
              (long long)r.cluster.node(p).store().Read("B", 1)->num);

  std::printf("t21-22 [q] jp completion notice arrives; j complete;"
              " C2qq=%lld->", (long long)r.C(q, 2, q));
  r.Deliver(p, q, kNotice);
  std::printf("%lld\n", (long long)r.C(q, 2, q));
  r.Deliver(q, client, kResult);

  std::printf("t25-26 [q] iqp completion notice arrives; iq complete;"
              " C1pq=%lld->", (long long)r.C(q, 1, p));
  r.Deliver(p, q, kNotice);
  std::printf("%lld\n", (long long)r.C(q, 1, p));

  std::printf("t23-27 [p] notices from s and q arrive; i complete;"
              " C1pp=%lld->", (long long)r.C(p, 1, p));
  r.Deliver(s, p, kNotice);
  r.Deliver(q, p, kNotice);
  std::printf("%lld\n", (long long)r.C(p, 1, p));
  r.Deliver(p, client, kResult);

  r.Snapshot("after time 28 (all counters match; up to 3 versions of A, D)");

  std::printf("\n\"Beyond this point all version data values are stable, all"
              " version counters match up\":\n");
  std::printf("  R1pp=%lld=C1pp=%lld  R1pq=%lld=C1pq=%lld  R1ps=%lld=C1ps=%lld"
              "  R1qp=%lld=C1qp=%lld\n",
              (long long)r.R(p, 1, p), (long long)r.C(p, 1, p),
              (long long)r.R(p, 1, q), (long long)r.C(q, 1, p),
              (long long)r.R(p, 1, s), (long long)r.C(s, 1, p),
              (long long)r.R(q, 1, p), (long long)r.C(p, 1, q));
  std::printf("  R2qq=%lld=C2qq=%lld  R2qp=%lld=C2qp=%lld\n",
              (long long)r.R(q, 2, q), (long long)r.C(q, 2, q),
              (long long)r.R(q, 2, p), (long long)r.C(p, 2, q));

  std::printf("\ncoordinator detects stability by the asynchronous two-wave"
              " counter read, switches the read version, garbage-collects:\n");
  while (!advanced) {
    r.net.DeliverAll();
    r.net.loop().Run();
  }
  std::printf("  advancement complete: vr=%u vu=%u on all sites\n",
              r.cluster.node(0).vr(), r.cluster.node(0).vu());
  r.Snapshot("after phase 4 garbage collection (version 0 gone)");

  Status invariants = r.cluster.CheckInvariants();
  std::printf("\ninvariants (<=3 copies, vr<vu<=vr+2, property 2b): %s\n",
              invariants.ToString().c_str());
  return invariants.ok() ? 0 : 1;
}
