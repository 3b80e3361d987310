// Deterministic crash/restart tests: a node is killed at an exact protocol
// point and restarted from checkpoint + WAL, and the cluster must finish
// what it was doing with every invariant intact - no acknowledged update
// lost, <= 3 versions per item, history still version-order serializable.
//
// Crash choreography and advancement driving use the shared fuzz-subsystem
// helpers (threev::fuzz::FaultPlan / DriveAdvancement), so these
// hand-written schedules and the generated fuzz schedules exercise one
// implementation.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "threev/core/cluster.h"
#include "threev/fuzz/fault_plan.h"
#include "threev/fuzz/oracle.h"
#include "threev/net/sim_net.h"
#include "threev/verify/checker.h"

namespace threev {
namespace {

std::string TestDir(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / ("threev_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The advancement protocol must survive losing a node at every one of its
// four externally visible steps: the restarted node recovers its versions
// and counters from the log and answers the coordinator's retransmissions.
TEST(CrashRecoveryTest, NodeCrashAtEachAdvancementPhase) {
  const struct {
    MsgType type;
    const char* name;
  } kPhases[] = {
      {MsgType::kStartAdvancement, "start_advancement"},
      {MsgType::kCounterRead, "counter_read"},
      {MsgType::kReadVersionAdvance, "read_version_advance"},
      {MsgType::kGarbageCollect, "garbage_collect"},
  };
  for (const auto& phase : kPhases) {
    SCOPED_TRACE(phase.name);
    Metrics metrics;
    HistoryRecorder history;
    SimNet net(SimNetOptions{.seed = 11, .min_delay = 100,
                             .mean_extra_delay = 200},
               &metrics);
    ClusterOptions options;
    options.num_nodes = 3;
    options.wal_dir = TestDir(std::string("crash_") + phase.name);
    options.coordinator_poll_interval = 1'000;
    options.coordinator_retry_interval = 5'000;
    Cluster cluster(options, &net, &metrics, &history);

    // Tally cross-node subtransaction deliveries for the conservation
    // probe, exactly as the fuzz driver does.
    fuzz::FaultPlan faults(&net, &cluster);
    fuzz::ExpectedMatrix expected;
    faults.SetObserver([&expected](NodeId to, const Message& msg) {
      if (msg.type != MsgType::kSubtxnRequest || msg.from >= 3 || to >= 3 ||
          msg.from == to) {
        return;
      }
      auto& row = expected[msg.version];
      if (row.empty()) row.assign(9, 0);
      row[static_cast<size_t>(msg.from) * 3 + to] += 1;
    });

    // Acknowledged traffic, quiesced before the fault: every one of these
    // must still be readable after crash + recovery.
    int64_t expected_balance[3] = {0, 0, 0};
    size_t done = 0;
    for (int i = 0; i < 30; ++i) {
      NodeId origin = static_cast<NodeId>(i % 3);
      NodeId other = static_cast<NodeId>((i + 1) % 3);
      cluster.Submit(origin,
                     TxnBuilder(origin)
                         .Add("acct", 2)
                         .Child(other, {OpAdd("acct", 3)})
                         .Build(),
                     [&done](const TxnResult& r) {
                       EXPECT_TRUE(r.status.ok());
                       ++done;
                     });
      expected_balance[origin] += 2;
      expected_balance[other] += 3;
    }
    net.loop().RunUntil([&] { return done == 30; });

    size_t cp = faults.Arm({.at_type = phase.type, .victim = 1,
                            .nth = 1, .downtime = 20'000});
    EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
    EXPECT_TRUE(faults.Fired(cp))
        << "the targeted message type never reached node 1";
    EXPECT_EQ(metrics.node_crashes.load(), 1);
    EXPECT_GT(metrics.messages_dropped.load(), 0);
    ASSERT_TRUE(cluster.node_alive(1));

    // With the crashed phase completed and the victim recovered, the
    // structural-invariant and counter-conservation probes must hold: the
    // kill left no counter row torn (version 1 is still live here, so the
    // conservation probe re-checks the full traffic matrix through the
    // restarted node's recovered counters).
    EXPECT_EQ(fuzz::InspectionProbe(cluster, net), std::vector<std::string>{});
    EXPECT_EQ(fuzz::ConservationProbe(cluster, net, expected),
              std::vector<std::string>{});

    // A second full advancement proves the recovered node participates in
    // quiescence detection (its counters survived) and GC.
    EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());

    ASSERT_TRUE(cluster.CheckInvariants().ok());
    for (size_t n = 0; n < 3; ++n) {
      Result<Value> v =
          cluster.node(n).store().Read("acct", cluster.node(n).vr());
      ASSERT_TRUE(v.ok()) << "node " << n;
      EXPECT_EQ(v->num, expected_balance[n])
          << "acknowledged update lost on node " << n;
      EXPECT_LE(cluster.node(n).store().MaxVersionsObserved(), 3u);
    }

    CheckerOptions copts;
    copts.check_version_cut = true;
    CheckResult check = CheckHistory(history.Transactions(), copts);
    EXPECT_TRUE(check.ok()) << check.Summary();
  }
}

// A checkpoint between the traffic and the crash must not change the
// outcome - recovery restores the snapshot and replays only the tail.
TEST(CrashRecoveryTest, CrashAfterCheckpointReplaysOnlyTail) {
  Metrics metrics;
  HistoryRecorder history;
  SimNet net(SimNetOptions{.seed = 3}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.wal_dir = TestDir("crash_after_ckpt");
  options.coordinator_poll_interval = 1'000;
  options.coordinator_retry_interval = 5'000;
  Cluster cluster(options, &net, &metrics, &history);
  fuzz::FaultPlan faults(&net, &cluster);

  size_t done = 0;
  auto burst = [&](int count) {
    size_t target = done + count;
    for (int i = 0; i < count; ++i) {
      NodeId origin = static_cast<NodeId>(i % 3);
      cluster.Submit(origin, TxnBuilder(origin).Add("acct", 1).Build(),
                     [&done](const TxnResult&) { ++done; });
    }
    net.loop().RunUntil([&] { return done == target; });
  };

  burst(12);
  ASSERT_TRUE(cluster.CheckpointAll().ok());
  burst(6);  // in the log but not the checkpoint

  size_t cp = faults.Arm({.at_type = MsgType::kStartAdvancement,
                          .victim = 0, .nth = 1, .downtime = 20'000});
  EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
  EXPECT_TRUE(faults.Fired(cp));
  ASSERT_TRUE(cluster.node_alive(0));

  ASSERT_TRUE(cluster.CheckInvariants().ok());
  Result<Value> v = cluster.node(0).store().Read("acct", cluster.node(0).vr());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->num, 6);  // 12/3 checkpointed + 6/3 replayed
}

// NC3V participant crash between its yes-vote and the commit decision: the
// prepared state is durable, the root retransmits the decision until the
// restarted node applies and acks it.
TEST(CrashRecoveryTest, CrashedParticipantHonorsRetransmittedDecision) {
  Metrics metrics;
  HistoryRecorder history;
  SimNet net(SimNetOptions{.seed = 21, .min_delay = 100,
                           .mean_extra_delay = 200},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.mode = NodeMode::kNC3V;
  options.wal_dir = TestDir("crash_2pc_participant");
  options.coordinator_poll_interval = 1'000;
  options.coordinator_retry_interval = 5'000;
  options.twopc_retry_interval = 10'000;
  Cluster cluster(options, &net, &metrics, &history);
  fuzz::FaultPlan faults(&net, &cluster);

  size_t cp = faults.Arm({.at_type = MsgType::kDecision, .victim = 1,
                          .nth = 1, .downtime = 20'000});

  bool done = false;
  cluster.Submit(0,
                 TxnBuilder(0)
                     .Put("doc", "v1")
                     .Child(1, {OpPut("doc", "v1")})
                     .Child(2, {OpPut("doc", "v1")})
                     .Build(),
                 [&done](const TxnResult& r) {
                   EXPECT_TRUE(r.status.ok()) << r.status.ToString();
                   done = true;
                 });
  net.loop().RunUntil([&] { return done; });
  EXPECT_TRUE(faults.Fired(cp));
  EXPECT_GT(metrics.twopc_retransmits.load(), 0);
  ASSERT_TRUE(cluster.node_alive(1));

  // The commit is visible on the recovered node (its after-images and the
  // retransmitted decision both replayed from the log).
  for (size_t n = 0; n < 3; ++n) {
    Result<Value> v = cluster.node(n).store().Read("doc", 1);
    ASSERT_TRUE(v.ok()) << "node " << n;
    EXPECT_EQ(v->str, "v1") << "node " << n;
  }

  // Locks are fully released: a second non-commuting writer gets through.
  done = false;
  cluster.Submit(2,
                 TxnBuilder(2)
                     .Put("doc", "v2")
                     .Child(0, {OpPut("doc", "v2")})
                     .Child(1, {OpPut("doc", "v2")})
                     .Build(),
                 [&done](const TxnResult& r) {
                   EXPECT_TRUE(r.status.ok());
                   done = true;
                 });
  net.loop().RunUntil([&] { return done; });

  // Deferred completion counters survived the crash: quiescence is still
  // detectable and the version machinery runs.
  EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
  EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(fuzz::InspectionProbe(cluster, net), std::vector<std::string>{});
  CheckResult check = CheckHistory(history.Transactions(), CheckerOptions{});
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// A node timer armed by an incarnation that is killed and restarted before
// the deadline never runs in the successor. The killed incarnation's lock
// timeout still fires - into the restarted node's handler, as a kTimer
// message - and its token matches nothing armed there, so the successor's
// own lock wait times out a full nc_lock_timeout after it began. (With
// per-incarnation tokens both timers would be token 1, and the old deadline
// would abort the new wait early.)
TEST(CrashRecoveryTest, KilledIncarnationTimerNeverRunsInItsSuccessor) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 41, .min_delay = 100,
                           .mean_extra_delay = 200},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 1;
  options.mode = NodeMode::kNC3V;
  options.nc_lock_timeout = 50'000;
  options.twopc_retry_interval = 0;  // the lock timeout is the only timer
  options.wal_dir = TestDir("timer_incarnation");
  Cluster cluster(options, &net, &metrics);
  auto run = [&](const TxnSpec& spec) {
    TxnResult result;
    bool done = false;
    cluster.Submit(0, spec, [&](const TxnResult& r) {
      result = r;
      done = true;
    });
    net.loop().RunUntil([&] { return done; });
    return result;
  };

  // The first incarnation arms a lock timeout, takes the lock at once,
  // commits, and dies well before the timer's deadline.
  const Micros armed_at = net.Now();
  ASSERT_TRUE(run(TxnBuilder(0).Put("a", "1").Build()).status.ok());
  cluster.KillNode(0);
  net.loop().RunFor(1'000);
  cluster.RestartNode(0);

  // The successor waits on a lock nobody releases; the old deadline falls
  // inside that wait.
  cluster.node(0).locks().Acquire("b", LockMode::kNCWrite, /*owner=*/999,
                                  [](bool) {});
  net.loop().RunFor(20'000);
  const Micros wait_start = net.Now();
  ASSERT_LT(wait_start, armed_at + options.nc_lock_timeout);
  TxnResult waited = run(TxnBuilder(0).Put("b", "2").Build());
  EXPECT_EQ(waited.status.code(), StatusCode::kAborted);
  EXPECT_EQ(waited.status.message(), "lock wait timeout");
  EXPECT_GE(waited.complete_time, wait_start + options.nc_lock_timeout);
  cluster.node(0).locks().ReleaseAll(999);
}

// NC3V root crash after sending prepares but before any decision: presumed
// abort. The restarted root finds the in-doubt transaction in its log with
// no decision record, logs an abort, and re-drives it to every node -
// participants roll back and release their locks.
TEST(CrashRecoveryTest, CrashedRootPresumesAbort) {
  Metrics metrics;
  HistoryRecorder history;
  SimNet net(SimNetOptions{.seed = 31, .min_delay = 100,
                           .mean_extra_delay = 200},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.mode = NodeMode::kNC3V;
  options.wal_dir = TestDir("crash_2pc_root");
  options.coordinator_poll_interval = 1'000;
  options.coordinator_retry_interval = 5'000;
  options.twopc_retry_interval = 10'000;
  Cluster cluster(options, &net, &metrics, &history);
  fuzz::FaultPlan faults(&net, &cluster);

  // Kill the ROOT (node 0) at the instant its prepare reaches node 1.
  size_t cp = faults.Arm({.at_type = MsgType::kPrepare, .victim = 0,
                          .nth = 1, .downtime = 20'000,
                          .trigger_node = 1});

  bool orphan_result = false;
  cluster.Submit(0,
                 TxnBuilder(0)
                     .Put("doc", "dead")
                     .Child(1, {OpPut("doc", "dead")})
                     .Child(2, {OpPut("doc", "dead")})
                     .Build(),
                 [&orphan_result](const TxnResult&) { orphan_result = true; });
  net.loop().RunUntil([&] { return faults.Fired(cp) && cluster.node_alive(0); });

  // A probe writer over the same key set serializes behind the in-doubt
  // locks; it can only commit once the re-driven abort released them on
  // every node.
  bool done = false;
  cluster.Submit(2,
                 TxnBuilder(2)
                     .Put("doc", "alive")
                     .Child(0, {OpPut("doc", "alive")})
                     .Child(1, {OpPut("doc", "alive")})
                     .Build(),
                 [&done](const TxnResult& r) {
                   EXPECT_TRUE(r.status.ok()) << r.status.ToString();
                   done = true;
                 });
  net.loop().RunUntil([&] { return done; });

  EXPECT_FALSE(orphan_result)
      << "the un-acknowledged transaction must not be reported committed";
  for (size_t n = 0; n < 3; ++n) {
    Result<Value> v = cluster.node(n).store().Read("doc", 1);
    ASSERT_TRUE(v.ok()) << "node " << n;
    EXPECT_EQ(v->str, "alive") << "node " << n;
  }

  // Aborted completions still count for quiescence: advancement completes.
  EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  CheckResult check = CheckHistory(history.Transactions(), CheckerOptions{});
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// NC3V root crash after its logged commit decision went out: the restarted
// root re-drives the commit as an ordinary 2PC round. Its own decision
// message died with it, so the root itself - a participant - resolves only
// through the re-driven round; the first re-driven decision to node 2 is
// dropped, so the round finishes only through the retry timer.
TEST(CrashRecoveryTest, CrashedRootRedrivesLoggedCommit) {
  Metrics metrics;
  HistoryRecorder history;
  SimNet net(SimNetOptions{.seed = 37, .min_delay = 100,
                           .mean_extra_delay = 200},
             &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.mode = NodeMode::kNC3V;
  options.wal_dir = TestDir("crash_2pc_root_commit");
  options.coordinator_poll_interval = 1'000;
  options.coordinator_retry_interval = 5'000;
  options.twopc_retry_interval = 10'000;
  Cluster cluster(options, &net, &metrics, &history);
  fuzz::FaultPlan faults(&net, &cluster);

  // Kill the ROOT (node 0) at the instant its commit decision reaches
  // node 1.
  size_t cp = faults.Arm({.at_type = MsgType::kDecision, .victim = 0,
                          .nth = 1, .downtime = 20'000,
                          .trigger_node = 1});
  bool dropped = false;
  net.SetFaultInjector([&](NodeId to, const Message& msg) {
    SimNet::FaultDecision d;
    if (faults.Fired(cp) && !dropped && msg.type == MsgType::kDecision &&
        msg.from == 0 && to == 2) {
      d.drop = dropped = true;
    }
    return d;
  });

  bool orphan_result = false;
  cluster.Submit(0,
                 TxnBuilder(0)
                     .Put("doc", "v1")
                     .Child(1, {OpPut("doc", "v1")})
                     .Child(2, {OpPut("doc", "v1")})
                     .Build(),
                 [&orphan_result](const TxnResult&) { orphan_result = true; });
  ASSERT_TRUE(fuzz::RunUntilDeadline(
      net.loop(), net.Now() + 1'000'000, [&] {
        return dropped && metrics.twopc_retransmits.load() > 0;
      }));
  net.loop().RunFor(50'000);
  EXPECT_TRUE(faults.Fired(cp));
  ASSERT_TRUE(cluster.node_alive(0));
  EXPECT_FALSE(orphan_result)
      << "a restarted root has no client to answer";

  // Every participant committed and released its locks.
  for (size_t n = 0; n < 3; ++n) {
    Result<Value> v = cluster.node(n).store().Read("doc", 1);
    ASSERT_TRUE(v.ok()) << "node " << n;
    EXPECT_EQ(v->str, "v1") << "node " << n;
    EXPECT_EQ(cluster.node(n).locks().HeldCount(), 0u) << "node " << n;
  }

  bool done = false;
  cluster.Submit(2,
                 TxnBuilder(2)
                     .Put("doc", "v2")
                     .Child(0, {OpPut("doc", "v2")})
                     .Child(1, {OpPut("doc", "v2")})
                     .Build(),
                 [&done](const TxnResult& r) {
                   EXPECT_TRUE(r.status.ok()) << r.status.ToString();
                   done = true;
                 });
  net.loop().RunUntil([&] { return done; });

  // The re-driven commit applied its deferred completions: quiescence is
  // still detectable.
  EXPECT_TRUE(fuzz::DriveAdvancement(net, cluster).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  CheckResult check = CheckHistory(history.Transactions(), CheckerOptions{});
  EXPECT_TRUE(check.ok()) << check.Summary();
}

}  // namespace
}  // namespace threev
