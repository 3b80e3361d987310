// Concurrency stress tests: many real threads hammering the primitives the
// protocol layer leans on (BlockingQueue, the ThreadNet mailbox, WaitGroup,
// Histogram, LockManager, VersionedStore). These exist primarily as tsan
// fodder - run them under the `tsan` preset to turn latent races into hard
// failures - but they also assert linearizable end-state invariants
// (nothing lost, nothing duplicated, lock table empty) so they catch logic
// races under the default build too.
//
// Registered with ctest label `stress`.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "threev/common/queue.h"
#include "threev/common/wait_group.h"
#include "threev/lock/lock_manager.h"
#include "threev/metrics/histogram.h"
#include "threev/metrics/metrics.h"
#include "threev/net/thread_net.h"
#include "threev/storage/versioned_store.h"

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

// Many owners acquiring commuting + non-commuting locks on a small hot key
// set from real threads, releasing everything. End state: empty lock table,
// every grant callback invoked exactly once.
TEST(ConcurrencyStressTest, LockManagerContention) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  constexpr int kKeys = 7;

  LockManager lm;
  std::atomic<int64_t> grants{0};
  std::atomic<int64_t> denials{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t owner = static_cast<uint64_t>(t) * kPerThread + i + 1;
        std::string key = "k" + std::to_string((t + i) % kKeys);
        // Mostly commuting traffic (never blocks against itself), with a
        // non-commuting writer every 16th acquisition to force queueing.
        LockMode mode = (i % 16 == 15) ? LockMode::kNCWrite
                        : (i % 2 == 0) ? LockMode::kCommuteUpdate
                                       : LockMode::kCommuteRead;
        WaitGroup granted;
        granted.Add(1);
        lm.Acquire(key, mode, owner, [&](bool ok) {
          if (ok) {
            grants.fetch_add(1, std::memory_order_relaxed);
          } else {
            denials.fetch_add(1, std::memory_order_relaxed);
          }
          granted.Done();
        });
        granted.Wait();
        lm.ReleaseAll(owner);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(grants.load() + denials.load(),
            static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(denials.load(), 0);  // nothing cancels, so every wait resolves
  EXPECT_EQ(lm.HeldCount(), 0u);
  EXPECT_EQ(lm.WaiterCount(), 0u);
}

// Sharded store under concurrent commuting updates and reads of the same
// hot keys; kAdd commutes, so the final sums are exact regardless of
// interleaving - any lost update is a shard-locking bug.
TEST(ConcurrencyStressTest, VersionedStoreConcurrentReadWrite) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeys = 16;
  constexpr int kOpsPerWriter = 5'000;

  VersionedStore store;
  for (int k = 0; k < kKeys; ++k) {
    store.Seed("key" + std::to_string(k), Value{}, /*version=*/1);
  }
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Operation op;
        op.kind = OpKind::kAdd;
        op.key = "key" + std::to_string((w + i) % kKeys);
        op.arg = 1;
        auto applied = store.Update(op.key, /*version=*/1, op);
        ASSERT_TRUE(applied.ok());
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          // Exercises the read path against racing updates; the value is a
          // monotone running sum, so any result in [0, total] is legal.
          auto v = store.Read("key" + std::to_string(k), /*max_version=*/1);
          if (v.ok()) {
            ASSERT_GE(v->num, 0);
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  int64_t total = 0;
  for (int k = 0; k < kKeys; ++k) {
    auto v = store.Read("key" + std::to_string(k), /*max_version=*/1);
    ASSERT_TRUE(v.ok());
    total += v->num;
  }
  EXPECT_EQ(total, static_cast<int64_t>(kWriters) * kOpsPerWriter);
  EXPECT_LE(store.MaxVersionsObserved(), kMaxSimultaneousVersions);
}

// Hammers the lock-free fast-slot read path specifically: every key here is
// slot-eligible while it holds one copy (short key, no ids, str <= 32
// bytes), so ReadInto serves from the seqlock slots while writers refresh
// them and a GC thread collects the second copies the writers made. Versions
// move as the protocol moves them: writers write at vu, readers read the
// frozen vr, and the GC thread advances vu, waits until no writer is still
// on the old vu, freezes it as vr, waits until no reader is still on the old
// vr, then collects - so every GC drops copies and refreshes slots while
// readers race it. Four invariants:
//   1. num keys: monotone running sums, exact total at the end (lost update
//      = shard locking bug).
//   2. str keys: writers only ever store uniform-character strings, so any
//      mixed-character or over-long string observed by a reader is a torn
//      seqlock read escaping validation.
//   3. NotFound never surfaces for seeded keys (a slot mismatch must fall
//      back to the locked map, not fabricate a miss).
//   4. GC visited records, i.e. the race above actually ran.
TEST(ConcurrencyStressTest, VersionedStoreFastSlotReadersVsWritersAndGC) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kNumKeys = 8;
  constexpr int kStrKeys = 4;
  constexpr int kOpsPerWriter = 4'000;
  constexpr Version kDone = std::numeric_limits<Version>::max();

  Metrics metrics;
  VersionedStore store(&metrics);
  for (int k = 0; k < kNumKeys; ++k) {
    store.Seed("hot" + std::to_string(k), Value{}, /*version=*/1);
  }
  for (int k = 0; k < kStrKeys; ++k) {
    store.Seed("str" + std::to_string(k), Value{}, /*version=*/1);
  }
  std::atomic<bool> stop{false};
  std::atomic<Version> vu{2};
  std::atomic<Version> vr{1};
  // The version each thread works at (kDone once finished): the test's
  // stand-in for the R/C quiescence the advancement coordinator waits for.
  std::vector<std::atomic<Version>> writer_at(kWriters);
  std::vector<std::atomic<Version>> reader_at(kReaders);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const Version v = vu.load();
        writer_at[w].store(v);
        Operation add;
        add.kind = OpKind::kAdd;
        add.key = "hot" + std::to_string((w + i) % kNumKeys);
        add.arg = 1;
        ASSERT_TRUE(store.Update(add.key, v, add).ok());
        // Uniform-character payload, length 0..32: stays slot-eligible and
        // makes torn string reads detectable.
        Operation put;
        put.kind = OpKind::kPut;
        put.key = "str" + std::to_string(i % kStrKeys);
        put.payload = std::string(i % 33, static_cast<char>('a' + (i % 8)));
        ASSERT_TRUE(store.Update(put.key, v, put).ok());
      }
      writer_at[w].store(kDone);
    });
  }
  // Returns false if the run stopped while waiting.
  auto wait_all_reach = [&stop](std::vector<std::atomic<Version>>& at,
                                Version v) {
    for (auto& a : at) {
      while (a.load() < v) {
        if (stop.load()) return false;
        std::this_thread::yield();
      }
    }
    return true;
  };
  std::atomic<int> collections{0};
  std::thread gc([&] {
    while (!stop.load()) {
      const Version frozen = vu.load();
      vu.store(NextVersion(frozen));
      if (!wait_all_reach(writer_at, NextVersion(frozen))) return;
      vr.store(frozen);
      if (!wait_all_reach(reader_at, frozen)) return;
      store.GarbageCollect(frozen);
      collections.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Value v;  // reused across calls, like the protocol layer does
      while (!stop.load()) {
        const Version at = vr.load();
        reader_at[r].store(at);
        for (int k = 0; k < kNumKeys; ++k) {
          Status s = store.ReadInto("hot" + std::to_string(k), at, &v);
          ASSERT_TRUE(s.ok());
          ASSERT_GE(v.num, 0);
          ASSERT_LE(v.num, int64_t{kWriters} * kOpsPerWriter);
        }
        for (int k = 0; k < kStrKeys; ++k) {
          Status s = store.ReadInto("str" + std::to_string(k), at, &v);
          ASSERT_TRUE(s.ok());
          ASSERT_LE(v.str.size(), 32u);
          for (char c : v.str) {
            ASSERT_EQ(c, v.str[0]) << "torn string read";
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  // Writers can finish before the GC thread gets going; two more full
  // rounds collect the second copies they left, with readers still racing.
  const int after_writes = collections.load();
  while (collections.load() < after_writes + 2) std::this_thread::yield();
  stop.store(true);
  gc.join();
  for (auto& t : readers) t.join();

  int64_t total = 0;
  for (int k = 0; k < kNumKeys; ++k) {
    auto v = store.Read("hot" + std::to_string(k), vu.load());
    ASSERT_TRUE(v.ok());
    total += v->num;
  }
  EXPECT_EQ(total, int64_t{kWriters} * kOpsPerWriter);
  EXPECT_LE(store.MaxVersionsObserved(), kMaxSimultaneousVersions);
  EXPECT_GT(metrics.gc_records_visited.load(), 0)
      << "GC never found a second copy to collect";
}

}  // namespace
}  // namespace threev
