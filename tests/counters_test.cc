#include "threev/core/counters.h"

#include <gtest/gtest.h>

#include <vector>

namespace threev {
namespace {

TEST(CounterTableTest, StartsAtZero) {
  CounterTable counters(4);
  EXPECT_EQ(counters.R(0, 2), 0);
  EXPECT_EQ(counters.C(5, 1), 0);
  EXPECT_TRUE(counters.ActiveVersions().empty());
}

TEST(CounterTableTest, IncrementAndRead) {
  CounterTable counters(4);
  counters.IncR(1, 2);
  counters.IncR(1, 2);
  counters.IncC(1, 3);
  EXPECT_EQ(counters.R(1, 2), 2);
  EXPECT_EQ(counters.R(1, 0), 0);
  EXPECT_EQ(counters.C(1, 3), 1);
}

TEST(CounterTableTest, VersionsIndependent) {
  CounterTable counters(2);
  counters.IncR(1, 0);
  counters.IncR(2, 0);
  counters.IncR(2, 0);
  EXPECT_EQ(counters.R(1, 0), 1);
  EXPECT_EQ(counters.R(2, 0), 2);
  EXPECT_EQ(counters.ActiveVersions(), (std::vector<Version>{1, 2}));
}

TEST(CounterTableTest, SnapshotsCoverAllPeers) {
  CounterTable counters(3);
  counters.IncR(1, 2);
  counters.IncC(1, 0);
  auto r = counters.SnapshotR(1);
  auto c = counters.SnapshotC(1);
  ASSERT_EQ(r.size(), 3u);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(r[2], (std::pair<NodeId, int64_t>{2, 1}));
  EXPECT_EQ(c[0], (std::pair<NodeId, int64_t>{0, 1}));
  // Snapshot of an unallocated version reports zeros, not absence.
  auto empty = counters.SnapshotR(9);
  ASSERT_EQ(empty.size(), 3u);
  EXPECT_EQ(empty[0].second, 0);
}

TEST(CounterTableTest, DropBelowGarbageCollects) {
  CounterTable counters(2);
  counters.IncR(0, 0);
  counters.IncR(1, 0);
  counters.IncR(2, 0);
  counters.DropBelow(2);
  EXPECT_EQ(counters.ActiveVersions(), (std::vector<Version>{2}));
  EXPECT_EQ(counters.R(1, 0), 0);
  EXPECT_EQ(counters.R(2, 0), 1);
}

// The owning node's thread is the table's only user, so exactness is a
// single-thread property: interleaved R and C increments on two versions.
TEST(CounterTableTest, ManyIncrementsAreExact) {
  CounterTable counters(2);
  constexpr int kIncrements = 20'000;
  for (int i = 0; i < kIncrements; ++i) {
    const Version v = 1 + i % 2;
    counters.IncR(v, 1);
    counters.IncC(v, 0);
  }
  for (Version v : {1u, 2u}) {
    EXPECT_EQ(counters.R(v, 1), kIncrements / 2);
    EXPECT_EQ(counters.C(v, 0), kIncrements / 2);
    EXPECT_EQ(counters.R(v, 0), 0);
  }
}

}  // namespace
}  // namespace threev
