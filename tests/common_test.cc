#include <gtest/gtest.h>

#include "threev/common/random.h"
#include "threev/common/status.h"
#include "threev/metrics/histogram.h"
#include "threev/sim/event_loop.h"
#include "blocking_queue.h"

namespace threev {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: key x");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Status::Aborted("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kAborted);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(ZipfTest, SkewPrefersLowIds) {
  Rng rng(5);
  ZipfGenerator zipf(100, 1.0);
  int low = 0, total = 10000;
  for (int i = 0; i < total; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // Zipf(1.0) over 100 items: top-10 should dominate well beyond uniform 10%.
  EXPECT_GT(low, total / 4);
}

TEST(ZipfTest, ZeroThetaIsRoughlyUniform) {
  Rng rng(5);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.Sample(rng)]++;
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(BlockingQueueTest, PushPopOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50, 5);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99, 8);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_EQ(a.min(), 10);
}

TEST(HistogramTest, LargeValuesBounded) {
  Histogram h;
  h.Record(int64_t{1} << 40);
  EXPECT_GE(h.Percentile(100), (int64_t{1} << 40) * 9 / 10);
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoopTest, TiesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(10, [&] {
    loop.ScheduleAfter(5, [&] { fired = 1; });
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 15);
}

TEST(EventLoopTest, CancelSkipsEvent) {
  EventLoop loop;
  int fired = 0;
  uint64_t id = loop.ScheduleAt(10, [&] { fired = 1; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTest, RunForStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(10, [&] { fired++; });
  loop.ScheduleAt(100, [&] { fired++; });
  loop.RunFor(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 50);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, RunUntilPredicate) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    loop.ScheduleAt(i * 10, [&] { ++count; });
  }
  EXPECT_TRUE(loop.RunUntil([&] { return count >= 3; }));
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace threev
