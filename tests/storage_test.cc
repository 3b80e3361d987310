#include "threev/storage/versioned_store.h"

#include <gtest/gtest.h>

#include "threev/metrics/metrics.h"

namespace threev {
namespace {

Value Num(int64_t n) {
  Value v;
  v.num = n;
  return v;
}

TEST(VersionedStoreTest, ReadMissingKeyIsNotFound) {
  VersionedStore store;
  EXPECT_EQ(store.Read("x", 5).status().code(), StatusCode::kNotFound);
}

TEST(VersionedStoreTest, SeedAndRead) {
  VersionedStore store;
  store.Seed("x", Num(7), 0);
  EXPECT_EQ(store.Read("x", 0)->num, 7);
  EXPECT_EQ(store.Read("x", 9)->num, 7);  // max existing <= 9 is version 0
}

TEST(VersionedStoreTest, ReadBelowOnlyVersionIsNotFound) {
  VersionedStore store;
  store.Seed("x", Num(7), 3);
  EXPECT_EQ(store.Read("x", 2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Read("x", 3)->num, 7);
}

TEST(VersionedStoreTest, UpdateCreatesByCopyOnWrite) {
  Metrics metrics;
  VersionedStore store(&metrics);
  store.Seed("x", Num(10), 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 5)).ok());
  // Version 0 untouched, version 1 = copy + delta.
  EXPECT_EQ(store.Read("x", 0)->num, 10);
  EXPECT_EQ(store.Read("x", 1)->num, 15);
  EXPECT_EQ(metrics.version_copies.load(), 1);
}

TEST(VersionedStoreTest, SecondUpdateSameVersionDoesNotCopyAgain) {
  Metrics metrics;
  VersionedStore store(&metrics);
  store.Seed("x", Num(10), 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 5)).ok());
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 5)).ok());
  EXPECT_EQ(store.Read("x", 1)->num, 20);
  EXPECT_EQ(metrics.version_copies.load(), 1);
}

TEST(VersionedStoreTest, FreshKeyStartsEmptyNoCopy) {
  Metrics metrics;
  VersionedStore store(&metrics);
  ASSERT_TRUE(store.Update("x", 2, OpAdd("x", 3)).ok());
  EXPECT_EQ(store.Read("x", 2)->num, 3);
  EXPECT_EQ(metrics.version_copies.load(), 0);
  EXPECT_EQ(store.Read("x", 1).status().code(), StatusCode::kNotFound);
}

TEST(VersionedStoreTest, StragglerWritesAllNewerVersions) {
  Metrics metrics;
  VersionedStore store(&metrics);
  store.Seed("x", Num(0), 0);
  // Version 2 is created first (a new-version transaction got there first).
  ASSERT_TRUE(store.Update("x", 2, OpAdd("x", 100)).ok());
  // A version-1 straggler must land in version 1 AND version 2 (Section
  // 4.1 step 4), so that version 2 stays a superset of version 1.
  Result<int> applied = store.Update("x", 1, OpAdd("x", 7));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2);
  EXPECT_EQ(store.Read("x", 0)->num, 0);
  EXPECT_EQ(store.Read("x", 1)->num, 7);
  EXPECT_EQ(store.Read("x", 2)->num, 107);
  EXPECT_EQ(metrics.dual_version_writes.load(), 1);
  EXPECT_EQ(store.MaxVersionsObserved(), 3u);
}

TEST(VersionedStoreTest, StragglerCopiesFromVersionBelowItself) {
  VersionedStore store;
  store.Seed("x", Num(50), 0);
  ASSERT_TRUE(store.Update("x", 2, OpAdd("x", 1)).ok());  // v2 = 51
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 2)).ok());  // v1 = 52, v2 = 53
  EXPECT_EQ(store.Read("x", 1)->num, 52);
  EXPECT_EQ(store.Read("x", 2)->num, 53);
}

TEST(VersionedStoreTest, InsertAndRemoveIds) {
  VersionedStore store;
  ASSERT_TRUE(store.Update("log", 1, OpInsert("log", 42)).ok());
  ASSERT_TRUE(store.Update("log", 1, OpInsert("log", 43)).ok());
  EXPECT_TRUE(store.Read("log", 1)->ContainsId(42));
  ASSERT_TRUE(store.Update("log", 1, OpRemove("log", 42)).ok());
  EXPECT_FALSE(store.Read("log", 1)->ContainsId(42));
  EXPECT_TRUE(store.Read("log", 1)->ContainsId(43));
}

TEST(VersionedStoreTest, GarbageCollectDropsOldWhenNewExists) {
  VersionedStore store;
  store.Seed("x", Num(1), 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 1)).ok());
  store.GarbageCollect(1);
  EXPECT_EQ(store.VersionsOf("x"), (std::vector<Version>{1}));
  EXPECT_EQ(store.Read("x", 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Read("x", 1)->num, 2);
}

TEST(VersionedStoreTest, GarbageCollectRelabelsWhenNewMissing) {
  VersionedStore store;
  store.Seed("x", Num(9), 0);
  // No version-1 copy exists (item untouched this epoch): version 0 is
  // relabeled as version 1.
  store.GarbageCollect(1);
  EXPECT_EQ(store.VersionsOf("x"), (std::vector<Version>{1}));
  EXPECT_EQ(store.Read("x", 1)->num, 9);
}

TEST(VersionedStoreTest, GarbageCollectRelabelEdgeCases) {
  // Several versions older than vr_new but no exact copy: only the LATEST
  // earlier version survives (relabeled); everything before it is dropped.
  VersionedStore store;
  store.Seed("x", Num(1), 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 10)).ok());
  store.GarbageCollect(2);
  EXPECT_EQ(store.VersionsOf("x"), (std::vector<Version>{2}));
  EXPECT_EQ(store.Read("x", 2)->num, 11);

  // Relabel coexisting with a straggler-written newer version: the newer
  // copy is untouched, the older one takes the vr_new label.
  store.Seed("y", Num(5), 0);
  ASSERT_TRUE(store.Update("y", 3, OpAdd("y", 1)).ok());
  store.GarbageCollect(2);
  EXPECT_EQ(store.VersionsOf("y"), (std::vector<Version>{2, 3}));
  EXPECT_EQ(store.Read("y", 2)->num, 5);

  // Only versions newer than vr_new exist (item created after the cut):
  // nothing to relabel, nothing dropped.
  VersionedStore fresh;
  fresh.Seed("z", Num(7), 3);
  fresh.GarbageCollect(2);
  EXPECT_EQ(fresh.VersionsOf("z"), (std::vector<Version>{3}));
  EXPECT_EQ(fresh.Read("z", 2).status().code(), StatusCode::kNotFound);
}

TEST(VersionedStoreTest, GarbageCollectKeepsNewerVersions) {
  VersionedStore store;
  store.Seed("x", Num(0), 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 1)).ok());
  ASSERT_TRUE(store.Update("x", 2, OpAdd("x", 1)).ok());
  store.GarbageCollect(1);
  EXPECT_EQ(store.VersionsOf("x"), (std::vector<Version>{1, 2}));
}

TEST(VersionedStoreTest, UpdateExactConflictsWithNewerVersion) {
  VersionedStore store;
  ASSERT_TRUE(store.Update("x", 2, OpAdd("x", 1)).ok());
  UndoEntry undo;
  Status s = store.UpdateExact("x", 1, OpAdd("x", 1), &undo);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(VersionedStoreTest, UpdateExactTouchesOnlyItsVersion) {
  VersionedStore store;
  store.Seed("x", Num(5), 0);
  UndoEntry undo;
  ASSERT_TRUE(store.UpdateExact("x", 1, OpAdd("x", 3), &undo).ok());
  EXPECT_EQ(store.Read("x", 0)->num, 5);
  EXPECT_EQ(store.Read("x", 1)->num, 8);
  EXPECT_TRUE(undo.created);
}

TEST(VersionedStoreTest, UndoRemovesCreatedVersion) {
  VersionedStore store;
  store.Seed("x", Num(5), 0);
  UndoEntry undo;
  ASSERT_TRUE(store.UpdateExact("x", 1, OpAdd("x", 3), &undo).ok());
  store.Undo(undo);
  EXPECT_EQ(store.VersionsOf("x"), (std::vector<Version>{0}));
  EXPECT_EQ(store.Read("x", 1)->num, 5);  // falls back to version 0
}

TEST(VersionedStoreTest, UndoRestoresPriorValue) {
  VersionedStore store;
  UndoEntry undo1, undo2;
  ASSERT_TRUE(store.UpdateExact("x", 1, OpAdd("x", 3), &undo1).ok());
  ASSERT_TRUE(store.UpdateExact("x", 1, OpAdd("x", 4), &undo2).ok());
  store.Undo(undo2);
  EXPECT_EQ(store.Read("x", 1)->num, 3);
  store.Undo(undo1);
  EXPECT_EQ(store.Read("x", 1).status().code(), StatusCode::kNotFound);
}

TEST(VersionedStoreTest, PutAndMultiply) {
  VersionedStore store;
  UndoEntry undo;
  ASSERT_TRUE(store.UpdateExact("x", 1, OpPut("x", "hello"), &undo).ok());
  EXPECT_EQ(store.Read("x", 1)->str, "hello");
  ASSERT_TRUE(store.Update("y", 1, OpAdd("y", 6)).ok());
  ASSERT_TRUE(store.UpdateExact("y", 1, OpMultiply("y", 7), &undo).ok());
  EXPECT_EQ(store.Read("y", 1)->num, 42);
}

TEST(VersionedStoreTest, DumpAndKeys) {
  VersionedStore store;
  store.Seed("a", Num(1), 0);
  store.Seed("b", Num(2), 0);
  ASSERT_TRUE(store.Update("a", 1, OpAdd("a", 1)).ok());
  auto dump = store.DumpItem("a");
  EXPECT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].num, 1);
  EXPECT_EQ(dump[1].num, 2);
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.KeyCount(), 2u);
}

TEST(VersionedStoreTest, BytesCopiedTracksValueSize) {
  Metrics metrics;
  VersionedStore store(&metrics);
  Value big;
  big.str = std::string(1000, 'x');
  store.Seed("x", big, 0);
  ASSERT_TRUE(store.Update("x", 1, OpAdd("x", 1)).ok());
  EXPECT_GE(metrics.bytes_copied.load(), 1000);
}

// GC visits only the records written since the last GC: on a 10k-key
// store with 5 updated keys it touches at most those 5, and the 9,995
// untouched records still read with the new label afterwards.
TEST(VersionedStoreTest, GarbageCollectVisitsOnlyWrittenRecords) {
  Metrics metrics;
  VersionedStore store(&metrics);
  for (int i = 0; i < 10'000; ++i) {
    store.Seed("k" + std::to_string(i), Num(i), 0);
  }
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i * 1000);
    ASSERT_TRUE(store.Update(key, 1, OpAdd(key, 1)).ok());
  }
  store.GarbageCollect(1);
  EXPECT_LE(metrics.gc_records_visited.load(), 5);
  EXPECT_EQ(store.VersionsOf("k0"), (std::vector<Version>{1}));
  EXPECT_EQ(store.Read("k0", 1)->num, 1);
  EXPECT_EQ(store.VersionsOf("k1"), (std::vector<Version>{1}));
  EXPECT_EQ(store.Read("k1", 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Read("k1", 1)->num, 1);

  // Nothing written since: the next GC visits nothing, and a repeated or
  // stale one changes nothing.
  store.GarbageCollect(2);
  store.GarbageCollect(2);
  store.GarbageCollect(1);
  EXPECT_LE(metrics.gc_records_visited.load(), 5);
  EXPECT_EQ(store.VersionsOf("k9999"), (std::vector<Version>{2}));
  EXPECT_EQ(store.Read("k9999", 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Read("k9999", 2)->num, 9999);
}

// A record GC would visit (written below the floor) that an undo then
// erases must leave the visit list with it: the next GC and the next
// records allocated must not meet the freed node (asan checks the former).
TEST(VersionedStoreTest, UndoErasingAListedRecordUnlistsIt) {
  VersionedStore store;
  store.Seed("old", Num(1), 0);
  store.GarbageCollect(5);
  UndoEntry undo;
  ASSERT_TRUE(store.UpdateExact("fresh", 2, OpAdd("fresh", 3), &undo).ok());
  EXPECT_EQ(store.VersionsOf("fresh"), (std::vector<Version>{2}));
  store.Undo(undo);
  EXPECT_EQ(store.KeyCount(), 1u);
  for (int i = 0; i < 64; ++i) store.Seed("n" + std::to_string(i), Num(i), 0);
  store.GarbageCollect(6);
  EXPECT_EQ(store.VersionsOf("n0"), (std::vector<Version>{6}));
  EXPECT_EQ(store.VersionsOf("old"), (std::vector<Version>{6}));
}

}  // namespace
}  // namespace threev
