// Concurrency stress tests: many real threads hammering the primitives that
// are shared between threads (BlockingQueue, the ThreadNet mailbox,
// WaitGroup, Histogram, the coordinator's StartAdvancement claim and its
// auto-advance predicate). A node's store, counters and lock table belong
// to its one thread and are tested single-threaded (storage_test,
// store_property_test, lock_test).
// These exist primarily as tsan fodder - run them under the `tsan` preset
// to turn latent races into hard failures - but they also assert
// linearizable end-state invariants (nothing lost, nothing duplicated) so
// they catch logic races under the default build too.
//
// Registered with ctest label `stress`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "threev/common/wait_group.h"
#include "threev/core/cluster.h"
#include "threev/metrics/histogram.h"
#include "threev/net/thread_net.h"
#include "blocking_queue.h"

namespace threev {
namespace {

// N producers, M consumers, every pushed value popped exactly once; Close()
// races with the last pushes and must not lose already-accepted items.
TEST(ConcurrencyStressTest, BlockingQueueManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 20'000;

  BlockingQueue<int64_t> queue;
  std::atomic<int64_t> accepted_sum{0};
  std::atomic<int64_t> popped_sum{0};
  std::atomic<int64_t> popped_count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int64_t> v = queue.Pop()) {
        popped_sum.fetch_add(*v, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int64_t v = static_cast<int64_t>(p) * kPerProducer + i + 1;
        if (queue.Push(v)) {
          accepted_sum.fetch_add(v, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), accepted_sum.load());
  EXPECT_EQ(queue.size(), 0u);
}

// Push/Pop racing Close(): accepted items must still drain, and every Pop
// after the drain must observe nullopt. Repeated to vary interleavings.
TEST(ConcurrencyStressTest, BlockingQueueCloseRace) {
  for (int round = 0; round < 50; ++round) {
    BlockingQueue<int> queue;
    std::atomic<int> accepted{0};
    std::atomic<int> popped{0};
    std::thread producer([&] {
      for (int i = 0; i < 1'000; ++i) {
        if (queue.Push(i)) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread consumer([&] {
      while (queue.Pop()) popped.fetch_add(1, std::memory_order_relaxed);
    });
    std::thread closer([&] { queue.Close(); });
    producer.join();
    closer.join();
    consumer.join();
    EXPECT_EQ(popped.load(), accepted.load()) << "round " << round;
  }
}

// Per-producer receive state of one ThreadNet endpoint. Written only by
// the endpoint's worker; producers read `handled` to wait for a burst.
struct ParkingProbe {
  static constexpr int kProducers = 4;
  std::array<std::atomic<uint64_t>, kProducers> handled{};
  std::atomic<int> out_of_order{0};

  // Messages from producer p carry seq 1, 2, ... in send order; the
  // mailbox is FIFO, so anything else is a lost, duplicated or reordered
  // message.
  void Handle(const Message& m) {
    auto& h = handled[m.from];
    const uint64_t next = h.load(std::memory_order_relaxed) + 1;
    if (m.seq != next) out_of_order.fetch_add(1, std::memory_order_relaxed);
    h.store(m.seq, std::memory_order_release);
  }
};

Message ProducerMessage(int producer, uint64_t seq) {
  Message m;
  m.type = MsgType::kClientSubmit;
  m.from = static_cast<NodeId>(producer);
  m.seq = seq;
  return m;
}

// Producers send bursts to one ThreadNet endpoint and wait for each burst
// to be handled before pausing and sending the next, so the worker keeps
// parking in epoll_wait and nearly every burst starts against a parked
// worker. A lost wakeup leaves a burst in the mailbox with the worker
// asleep; the bounded wait turns that hang into a failure.
TEST(ConcurrencyStressTest, ThreadNetParkingWorkerWakesForEveryBurst) {
  constexpr int kProducers = ParkingProbe::kProducers;
  constexpr int kBursts = 150;
  constexpr auto kBound = std::chrono::seconds(10);
  ThreadNet net;
  ParkingProbe probe;
  net.RegisterEndpoint(0, [&probe](const Message& m) { probe.Handle(m); });
  net.Start();

  std::atomic<int> stuck{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t sent = 0;
      for (int b = 0; b < kBursts; ++b) {
        const int burst = 1 + (b * 7 + p) % 8;
        for (int i = 0; i < burst; ++i) net.Send(0, ProducerMessage(p, ++sent));
        const auto deadline = std::chrono::steady_clock::now() + kBound;
        while (probe.handled[p].load(std::memory_order_acquire) < sent) {
          if (std::chrono::steady_clock::now() > deadline) {
            stuck.fetch_add(1);
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        // Long enough for the worker to find the mailbox empty and park.
        std::this_thread::sleep_for(std::chrono::microseconds(100 + 50 * p));
      }
    });
  }
  for (auto& t : producers) t.join();
  net.Stop();

  EXPECT_EQ(stuck.load(), 0) << "a burst waited past the bound";
  EXPECT_EQ(probe.out_of_order.load(), 0);
  for (int p = 0; p < kProducers; ++p) {
    uint64_t want = 0;
    for (int b = 0; b < kBursts; ++b) want += 1 + (b * 7 + p) % 8;
    EXPECT_EQ(probe.handled[p].load(), want) << "producer " << p;
  }
}

// Stop() races producers that are still sending: every handled message
// is a FIFO prefix of what its producer sent, and no handler runs after
// Stop() returns.
TEST(ConcurrencyStressTest, ThreadNetStopWhileProducersSend) {
  constexpr int kProducers = ParkingProbe::kProducers;
  for (int round = 0; round < 20; ++round) {
    ThreadNet net;
    ParkingProbe probe;
    std::atomic<bool> stop_returned{false};
    std::atomic<int> late{0};
    net.RegisterEndpoint(0, [&](const Message& m) {
      if (stop_returned.load()) late.fetch_add(1);
      probe.Handle(m);
    });
    net.Start();

    std::atomic<bool> quit{false};
    std::array<uint64_t, kProducers> sent{};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        uint64_t n = 0;
        while (!quit.load()) {
          net.Send(0, ProducerMessage(p, ++n));
          // Pause now and then so Stop() meets a parked worker too.
          if (n % 64 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        sent[p] = n;
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 5));
    net.Stop();
    stop_returned.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    quit.store(true);
    for (auto& t : producers) t.join();

    EXPECT_EQ(late.load(), 0) << "round " << round;
    EXPECT_EQ(probe.out_of_order.load(), 0) << "round " << round;
    for (int p = 0; p < kProducers; ++p) {
      EXPECT_LE(probe.handled[p].load(), sent[p]) << "round " << round;
    }
  }
}

// Owned timers armed from several threads at once while their owners are
// parked, and by each owner's own handler while it is busy: each fires
// exactly once, as a kTimer message on its owner's worker - the thread
// that runs the owner's other messages - never before its arm time plus
// its delay, and one armer's timers of one delay for one owner fire in arm
// order.
TEST(ConcurrencyStressTest, ThreadNetOwnedTimersFireOnTheOwnersWorker) {
  constexpr int kEndpoints = 3;
  constexpr int kArmers = 4;
  constexpr uint64_t kPerArmer = 200;
  constexpr uint64_t kForeign = kArmers * kPerArmer;
  constexpr uint64_t kSelfArms = 50;  // per owner, from its own handler
  constexpr uint64_t kTotal = kForeign + kEndpoints * kSelfArms;
  // Per token, written by its armer before the arm; the mailbox lock the
  // arm takes orders the write before the owner's read.
  struct Arm {
    NodeId owner = 0;
    int armer = 0;  // kArmers + owner for an owner's own arms
    Micros at = 0;
    Micros delay = 0;
  };
  std::vector<Arm> arms(kTotal + 1);
  struct Owner {
    std::thread::id worker;  // set by the first (non-timer) message
    std::vector<uint64_t> tokens;
    int off_worker = 0;
    int early = 0;
  };
  std::array<Owner, kEndpoints> owners;
  ThreadNet net;
  auto arm = [&](NodeId owner, int armer, Micros delay, uint64_t token) {
    arms[token] = Arm{owner, armer, net.Now(), delay};
    net.ScheduleTimer(owner, delay, token);
  };
  WaitGroup hello;
  hello.Add(kEndpoints);
  WaitGroup fired;
  fired.Add(static_cast<int>(kTotal));
  for (int e = 0; e < kEndpoints; ++e) {
    net.RegisterEndpoint(e, [&, e](const Message& m) {
      Owner& o = owners[e];
      if (m.type != MsgType::kTimer) {
        o.worker = std::this_thread::get_id();
        for (uint64_t i = 0; i < kSelfArms; ++i) {
          arm(e, kArmers + e, static_cast<Micros>(i % 2) * 300,
              kForeign + e * kSelfArms + i + 1);
        }
        hello.Done();
        return;
      }
      if (std::this_thread::get_id() != o.worker) ++o.off_worker;
      const Arm& a = arms[m.seq];
      if (net.Now() < a.at + a.delay) ++o.early;
      o.tokens.push_back(m.seq);
      fired.Done();
    });
  }
  net.Start();
  for (int e = 0; e < kEndpoints; ++e) net.Send(e, ProducerMessage(e, 1));
  ASSERT_TRUE(hello.WaitFor(std::chrono::seconds(10)));

  std::vector<std::thread> armers;
  for (int a = 0; a < kArmers; ++a) {
    armers.emplace_back([&, a] {
      for (uint64_t i = 0; i < kPerArmer; ++i) {
        const uint64_t token = a * kPerArmer + i + 1;
        arm(static_cast<NodeId>(token % kEndpoints), a,
            static_cast<Micros>(i % 5) * 100, token);
      }
    });
  }
  for (auto& t : armers) t.join();
  ASSERT_TRUE(fired.WaitFor(std::chrono::seconds(10)));
  net.Stop();

  std::vector<uint64_t> all;
  for (int e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(owners[e].off_worker, 0) << "endpoint " << e;
    EXPECT_EQ(owners[e].early, 0) << "endpoint " << e;
    // Last token fired per (armer, delay); tokens grow in arm order.
    std::map<std::pair<int, Micros>, uint64_t> last;
    for (uint64_t token : owners[e].tokens) {
      const Arm& a = arms[token];
      EXPECT_EQ(a.owner, static_cast<NodeId>(e));
      uint64_t& prev = last[{a.armer, a.delay}];
      EXPECT_LT(prev, token) << "armer " << a.armer << " delay " << a.delay;
      prev = token;
      all.push_back(token);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kTotal);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
}

// Timers armed before Start() wait for the workers: a ScheduleAfter
// callback armed off the workers runs on the lowest endpoint's worker, and
// an owned timer on its owner's.
TEST(ConcurrencyStressTest, ThreadNetTimersArmedBeforeStartFireAfterIt) {
  ThreadNet net;
  std::atomic<bool> started{false};
  std::atomic<int> early{0};
  std::thread::id low_worker, high_worker, callback_thread, timer_thread;
  WaitGroup done;
  done.Add(3);
  net.RegisterEndpoint(5, [&](const Message& m) {
    high_worker = std::this_thread::get_id();
    if (m.type == MsgType::kTimer) timer_thread = high_worker;
    done.Done();
  });
  net.RegisterEndpoint(2, [&](const Message&) {
    low_worker = std::this_thread::get_id();
    done.Done();
  });
  net.ScheduleAfter(0, [&] {
    if (!started.load()) early.fetch_add(1);
    callback_thread = std::this_thread::get_id();
    done.Done();
  });
  net.ScheduleTimer(5, 0, 77);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  started.store(true);
  net.Start();
  net.Send(2, ProducerMessage(0, 1));
  ASSERT_TRUE(done.WaitFor(std::chrono::seconds(10)));
  net.Stop();
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(callback_thread, low_worker);
  EXPECT_EQ(timer_thread, high_worker);
  EXPECT_NE(low_worker, high_worker);
}

// An arm after Stop() is dropped: nothing runs, nothing crashes, and the
// callback it carried is destroyed.
TEST(ConcurrencyStressTest, ThreadNetArmAfterStopIsDropped) {
  ThreadNet net;
  std::atomic<int> ran{0};
  net.RegisterEndpoint(0, [&](const Message&) { ran.fetch_add(1); });
  net.Start();
  net.Stop();
  auto token = std::make_shared<int>(0);
  net.ScheduleAfter(0, [&ran, token] { ran.fetch_add(1); });
  net.ScheduleTimer(0, 0, 1);
  EXPECT_EQ(token.use_count(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ran.load(), 0);
}

// Four threads race StartAdvancement against an auto-advance chain that
// ticks every millisecond on the coordinator's own worker. Each claim won
// runs exactly one advancement, and each true return gets exactly one done.
TEST(ConcurrencyStressTest, StartAdvancementRacesAutoAdvance) {
  constexpr int kRacers = 4;
  constexpr int kAttempts = 100;
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  Cluster cluster(options, &net, &metrics);
  AdvanceCoordinator& coord = cluster.coordinator();
  net.Start();
  coord.EnableAutoAdvance(1'000);

  // Per attempt: whether StartAdvancement returned true, and done calls.
  std::array<std::atomic<bool>, kRacers * kAttempts> won{};
  std::array<std::atomic<int>, kRacers * kAttempts> dones{};
  std::atomic<int> not_ok{0};
  std::vector<std::thread> racers;
  for (int r = 0; r < kRacers; ++r) {
    racers.emplace_back([&, r] {
      for (int i = 0; i < kAttempts; ++i) {
        const int slot = r * kAttempts + i;
        won[slot] = coord.StartAdvancement([&, slot](Status s) {
          if (!s.ok()) not_ok.fetch_add(1);
          dones[slot].fetch_add(1);
        });
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : racers) t.join();

  // Stop the chain, then win one last claim: its done runs on the owner
  // thread after every earlier advancement's, and no tick can claim later.
  coord.DisableAutoAdvance();
  WaitGroup last;
  last.Add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!coord.StartAdvancement([&](Status) { last.Done(); })) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(last.WaitFor(std::chrono::seconds(30)));
  WaitGroup inspected;
  inspected.Add(1);
  int64_t epoch = -1;
  cluster.client().Inspect(cluster.coordinator_id(),
                           [&](const NodeInspection& r) {
                             epoch = r.Stat("epoch");
                             inspected.Done();
                           });
  ASSERT_TRUE(inspected.WaitFor(std::chrono::seconds(30)));
  net.Stop();

  int public_wins = 0;
  for (int slot = 0; slot < kRacers * kAttempts; ++slot) {
    public_wins += won[slot] ? 1 : 0;
    EXPECT_EQ(dones[slot].load(), won[slot] ? 1 : 0) << "attempt " << slot;
  }
  EXPECT_GT(public_wins, 0);
  EXPECT_EQ(not_ok.load(), 0);
  // Claims won = advancements begun (the epoch), public and auto alike.
  EXPECT_EQ(coord.completed_count(), static_cast<uint64_t>(epoch));
  EXPECT_GE(coord.completed_count(), static_cast<uint64_t>(public_wins) + 1);
  EXPECT_EQ(metrics.advancements_completed.load(),
            static_cast<int64_t>(coord.completed_count()));
  EXPECT_FALSE(coord.running());
  EXPECT_EQ(coord.vu(), NextVersion(coord.vr()));
  for (NodeId n = 0; n < options.num_nodes; ++n) {
    EXPECT_EQ(cluster.node(n).vu(), NextVersion(cluster.node(n).vr()))
        << "node " << n;
    EXPECT_EQ(cluster.node(n).vr(), coord.vr()) << "node " << n;
  }
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

// The auto-advance predicate runs on the coordinator's thread while the
// test thread commits transactions and enables, re-enables and disables
// the chain: each Enable hands the owner thread a new predicate, and
// neither a predicate nor its state may be touched by two threads.
TEST(ConcurrencyStressTest, AutoAdvancePredicateRacesEnableDisable) {
  Metrics metrics;
  ThreadNet net(ThreadNetOptions{}, &metrics);
  ClusterOptions options;
  options.num_nodes = 3;
  Cluster cluster(options, &net, &metrics);
  AdvanceCoordinator& coord = cluster.coordinator();
  net.Start();

  // "After N transactions", with its own baseline per Enable.
  auto after_commits = [&metrics](int64_t n) -> std::function<bool()> {
    return [&metrics, n, baseline = metrics.txns_committed.load()]() mutable {
      const int64_t committed = metrics.txns_committed.load();
      if (committed - baseline < n) return false;
      baseline = committed;
      return true;
    };
  };
  WaitGroup txns;
  std::atomic<int> not_ok{0};
  auto submit = [&](int i) {
    const NodeId a = i % 3, b = (i + 1) % 3;
    txns.Add(1);
    cluster.Submit(a,
                   TxnBuilder(a).Add("x", 1).Child(b, {OpAdd("y", 1)}).Build(),
                   [&](const TxnResult& r) {
                     if (!r.status.ok()) not_ok.fetch_add(1);
                     txns.Done();
                   });
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  int i = 0;
  for (; i < 300; ++i) {
    if (i % 20 == 0) coord.EnableAutoAdvance(1'000, after_commits(5));
    if (i % 20 == 7) coord.EnableAutoAdvance(1'000, after_commits(3));
    if (i % 20 == 14) coord.DisableAutoAdvance();
    submit(i);
  }
  // Then leave the chain on until its predicate has started advancements.
  coord.EnableAutoAdvance(1'000, after_commits(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (; coord.completed_count() < 2; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    submit(i);
  }
  ASSERT_TRUE(txns.WaitFor(std::chrono::seconds(30)));

  // Drain: once the chain is off, a won claim finishes after every
  // advancement a tick began.
  coord.DisableAutoAdvance();
  WaitGroup last;
  last.Add(1);
  while (!coord.StartAdvancement([&](Status) { last.Done(); })) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(last.WaitFor(std::chrono::seconds(30)));
  net.Stop();

  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_GE(coord.completed_count(), 3u);
  EXPECT_EQ(coord.vu(), NextVersion(coord.vr()));
  for (NodeId n = 0; n < options.num_nodes; ++n) {
    EXPECT_EQ(cluster.node(n).vu(), NextVersion(cluster.node(n).vr()))
        << "node " << n;
    EXPECT_EQ(cluster.node(n).vr(), coord.vr()) << "node " << n;
  }
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

// Concurrent Record() from many threads; totals must be exact after joins.
TEST(ConcurrencyStressTest, HistogramConcurrentRecord) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;

  Histogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record((t * kPerThread + i) % 1'000 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(hist.count(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_GE(hist.min(), 1);
  EXPECT_LE(hist.max(), 1'000);
  // p100 upper bound must cover max; bucketization allows ~6% slack upward.
  EXPECT_GE(hist.Percentile(100.0), hist.max());
  // Merge under quiesced writers is exact in count.
  Histogram other;
  other.Record(5);
  other.Merge(hist);
  EXPECT_EQ(other.count(), hist.count() + 1);
}

// WaitGroup as a rendezvous under churn: Add-before-spawn, Done from worker
// threads, Wait must not return early or hang.
TEST(ConcurrencyStressTest, WaitGroupChurn) {
  for (int round = 0; round < 200; ++round) {
    WaitGroup wg;
    constexpr int kWorkers = 8;
    std::atomic<int> done{0};
    wg.Add(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        done.fetch_add(1, std::memory_order_relaxed);
        wg.Done();
      });
    }
    wg.Wait();
    EXPECT_EQ(done.load(), kWorkers) << "round " << round;
    for (auto& t : workers) t.join();
  }
}

}  // namespace
}  // namespace threev
