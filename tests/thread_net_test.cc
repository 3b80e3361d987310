// Integration under real concurrency: the same protocol engines driven by
// per-node mailbox threads and concurrent submitter threads.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "threev/common/wait_group.h"
#include "threev/core/cluster.h"
#include "threev/net/thread_net.h"
#include "threev/net/wire.h"
#include "threev/verify/checker.h"
#include "blocking_queue.h"

namespace threev {
namespace {

TEST(ThreadNetTest, DeliversAndSchedules) {
  ThreadNet net;
  BlockingQueue<int> got;
  net.RegisterEndpoint(0, [&](const Message& m) {
    got.Push(static_cast<int>(m.seq));
  });
  net.Start();
  Message m;
  m.type = MsgType::kClientSubmit;
  m.seq = 42;
  net.Send(0, m);
  EXPECT_EQ(got.Pop().value(), 42);

  WaitGroup wg;
  wg.Add(1);
  net.ScheduleAfter(1'000, [&] { wg.Done(); });
  EXPECT_TRUE(wg.WaitFor(std::chrono::milliseconds(2000)));
  net.Stop();
}

TEST(ThreadNetTest, ClusterUnderConcurrentLoad) {
  Metrics metrics;
  HistoryRecorder history;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 4;
  Cluster cluster(options, &net, &metrics, &history);
  net.Start();
  cluster.coordinator().EnableAutoAdvance(3'000);

  constexpr int kPerThread = 150;
  constexpr int kThreads = 3;
  WaitGroup wg;
  wg.Add(kThreads * kPerThread);
  std::atomic<int> committed{0};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t uid = static_cast<uint64_t>(t) * 100000 + i;
        NodeId a = (t + i) % 4, b = (t + i + 1) % 4;
        TxnSpec spec;
        if (i % 4 == 3) {
          spec = TxnBuilder(b)
                     .Get("log@" + std::to_string(b))
                     .Child(a, {OpGet("log@" + std::to_string(a))})
                     .Build();
        } else {
          spec = TxnBuilder(a)
                     .Add("bal@" + std::to_string(a), 1)
                     .Op(OpInsert("log@" + std::to_string(a), uid))
                     .Child(b, {OpAdd("bal@" + std::to_string(b), 1),
                                OpInsert("log@" + std::to_string(b), uid)})
                     .Build();
        }
        cluster.Submit(spec.root.node, spec, [&](const TxnResult& r) {
          if (r.status.ok()) committed.fetch_add(1);
          wg.Done();
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(30'000)))
      << "transactions did not drain";
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(metrics.lock_waits.load(), 0);

  // Quiesce the advancement machinery, then check the history.
  cluster.coordinator().DisableAutoAdvance();
  while (cluster.coordinator().running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  net.Stop();
  CheckResult check = CheckHistory(history.Transactions());
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// Mixed commuting / non-commuting load. With `wal_dir` set every node logs.
// A 1 us 2PC retry interval makes every non-commuting root's retry timer
// fire while its votes or acks are still in flight, so node timers run -
// as kTimer messages on the node's own worker (the handler's overlap check
// would abort otherwise) - and stage and commit records there.
void RunMixedNonCommutingLoad(const std::string& wal_dir, Metrics& metrics) {
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  options.mode = NodeMode::kNC3V;
  options.nc_lock_timeout = 20'000;
  options.twopc_retry_interval = 1;
  options.wal_dir = wal_dir;
  Cluster cluster(options, &net, &metrics);
  net.Start();

  constexpr int kTotal = 120;
  WaitGroup wg;
  wg.Add(kTotal);
  std::atomic<int> committed{0}, aborted{0};
  for (int i = 0; i < kTotal; ++i) {
    NodeId a = i % 3, b = (i + 1) % 3;
    TxnSpec spec;
    if (i % 5 == 0) {
      // Non-commuting price changes over a small hot set.
      std::string key = "price@" + std::to_string(i % 2);
      spec = TxnBuilder(a)
                 .Put(key + "a", std::to_string(i))
                 .Child(b, {OpPut(key + "b", std::to_string(i))})
                 .Build();
    } else {
      spec = TxnBuilder(a)
                 .Add("stock@" + std::to_string(a), 1)
                 .Child(b, {OpAdd("stock@" + std::to_string(b), 1)})
                 .Build();
    }
    cluster.Submit(a, spec, [&](const TxnResult& r) {
      if (r.status.ok()) {
        committed.fetch_add(1);
      } else {
        aborted.fetch_add(1);
      }
      wg.Done();
    });
  }
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(30'000)));
  EXPECT_EQ(committed.load() + aborted.load(), kTotal);
  // All well-behaved traffic commits; only NC txns may time out.
  EXPECT_GE(committed.load(), kTotal * 4 / 5);
  // Only a fired node timer (ArmTwopcRetry) retransmits.
  EXPECT_GT(metrics.twopc_retransmits.load(), 0);
  net.Stop();
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.node(n).locks().HeldCount(), 0u)
        << "locks leaked on node " << n;
  }
}

TEST(ThreadNetTest, MixedNonCommutingLoadResolves) {
  Metrics metrics;
  RunMixedNonCommutingLoad("", metrics);
}

// Every handler, timer callbacks included, commits what it staged: once the
// transport stops, every record is on disk.
TEST(ThreadNetTest, MixedNonCommutingLoadWithWalLeavesNothingStaged) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "threev_thread_net_wal";
  std::filesystem::remove_all(dir);
  Metrics metrics;
  RunMixedNonCommutingLoad(dir.string(), metrics);
  int64_t on_disk = 0;
  for (int n = 0; n < 3; ++n) {
    const auto node_dir = dir / ("node-" + std::to_string(n));
    auto records = WriteAheadLog::ReadAll(node_dir.string(), 1);
    ASSERT_TRUE(records.ok());
    on_disk += static_cast<int64_t>(records->size());
  }
  EXPECT_GT(on_disk, 0);
  EXPECT_EQ(on_disk, metrics.wal_records.load());
  EXPECT_LE(metrics.wal_commits.load(), metrics.wal_records.load());
  EXPECT_EQ(metrics.wal_commit_failures.load(), 0);
  std::filesystem::remove_all(dir);
}

// bytes_sent charges the one size model: the exact encoded size of every
// message, the same figure TcpNet puts on the wire (minus its frame header).
TEST(ThreadNetTest, BytesSentIsEncodedMessageSize) {
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  WaitGroup wg;
  wg.Add(3);
  net.RegisterEndpoint(0, [&](const Message&) { wg.Done(); });
  net.Start();
  int64_t expected = 0;
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MsgType::kCompletionNotice;
    m.participants.assign(static_cast<size_t>(i), 7);
    m.reads.emplace_back("k" + std::to_string(i), Value{});
    m.status_msg = std::string(static_cast<size_t>(i) * 5, 'x');
    expected += static_cast<int64_t>(EncodedMessageSize(m));
    net.Send(0, m);
  }
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(5000)));
  net.Stop();
  EXPECT_EQ(metrics.messages_sent.load(), 3);
  EXPECT_EQ(metrics.bytes_sent.load(), expected);
}

// Deliver is the send path minus the accounting: it enqueues for a known
// endpoint and refuses an unknown one without consuming the message.
TEST(ThreadNetTest, DeliverRefusesUnknownEndpointUntouched) {
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  BlockingQueue<uint64_t> got;
  net.RegisterEndpoint(0, [&](const Message& m) { got.Push(m.seq); });
  net.Start();
  Message m;
  m.type = MsgType::kClientSubmit;
  m.seq = 9;
  m.status_msg = "kept";
  EXPECT_FALSE(net.Deliver(5, std::move(m)));
  EXPECT_EQ(m.status_msg, "kept");  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(net.Deliver(0, std::move(m)));
  EXPECT_EQ(got.Pop().value(), 9u);
  net.Stop();
  EXPECT_EQ(metrics.messages_sent.load(), 0);
  EXPECT_EQ(metrics.bytes_sent.load(), 0);
}

// Version 0 counts as frozen from the node's start, on the transport's
// clock, so a version-0 read on a real transport is only as stale as the
// cluster is old (not as old as the steady clock's epoch).
TEST(ThreadNetTest, VersionZeroStalenessCountsFromNodeStart) {
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options, &net, &metrics);
  net.Start();
  WaitGroup wg;
  wg.Add(1);
  TxnResult result;
  cluster.Submit(0, TxnBuilder(0).Get("x").Child(1, {OpGet("y")}).Build(),
                 [&](const TxnResult& r) {
                   result = r;
                   wg.Done();
                 });
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(10'000)));
  net.Stop();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.version, 0u);
  ASSERT_EQ(metrics.staleness.count(), 1);
  EXPECT_GE(metrics.staleness.max(), 0);
  EXPECT_LT(metrics.staleness.max(), 10'000'000);
}

}  // namespace
}  // namespace threev
