// Model-based property test for VersionedStore: random interleavings of
// versioned updates, reads and garbage collection are checked against a
// simple reference model that replays committed operations per version.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "threev/common/random.h"
#include "threev/storage/versioned_store.h"

namespace threev {
namespace {

// Reference model: full history of write ops per key; the value of key k
// at version v is the fold of all ops with version <= v... except that 3V
// semantics are NOT snapshot-at-version: an op at version w applies to
// every version >= w that EXISTS AT THE TIME OF THE WRITE. To keep the
// model simple and still binding, we model exactly the store's documented
// rules over explicit version sets.
struct ModelRecord {
  std::map<Version, Value> versions;

  void Update(Version v, const Operation& op) {
    if (versions.find(v) == versions.end()) {
      // copy max existing <= v
      Value base;
      for (auto& [mv, val] : versions) {
        if (mv <= v) base = val;
      }
      versions[v] = base;
    }
    for (auto& [mv, val] : versions) {
      if (mv >= v) op.ApplyTo(val);
    }
  }

  Result<Value> Read(Version v) const {
    const Value* best = nullptr;
    for (auto& [mv, val] : versions) {
      if (mv <= v) best = &val;
    }
    if (best == nullptr) return Status::NotFound("");
    return *best;
  }

  void Gc(Version vr_new) {
    if (versions.count(vr_new)) {
      versions.erase(versions.begin(), versions.find(vr_new));
    } else {
      // relabel newest older version
      auto it = versions.lower_bound(vr_new);
      if (it == versions.begin()) return;
      --it;
      Value moved = it->second;
      versions.erase(versions.begin(), std::next(it));
      versions[vr_new] = moved;
    }
  }
};

class StorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorePropertyTest, MatchesModelUnderRandomOps) {
  Rng rng(GetParam());
  VersionedStore store;
  std::map<std::string, ModelRecord> model;
  const std::vector<std::string> keys = {"a", "b", "c"};

  Version max_written = 0;
  Version gc_floor = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::string& key = keys[rng.Uniform(keys.size())];
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      // Write at a version in the "live window" [gc_floor, gc_floor+2] -
      // the protocol never writes below the GC floor.
      Version v = gc_floor + static_cast<Version>(rng.Uniform(3));
      Operation op =
          rng.Bernoulli(0.7)
              ? OpAdd(key, rng.UniformRange(-5, 5))
              : OpInsert(key, 1000 + static_cast<uint64_t>(step));
      auto applied = store.Update(key, v, op);
      ASSERT_TRUE(applied.ok());
      model[key].Update(v, op);
      max_written = std::max(max_written, v);
    } else if (dice < 0.95) {
      Version v = gc_floor + static_cast<Version>(rng.Uniform(4));
      Result<Value> got = store.Read(key, v);
      Result<Value> want = model[key].Read(v);
      ASSERT_EQ(got.ok(), want.ok()) << key << " v" << v << " step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << key << " v" << v << " step " << step;
      }
    } else if (max_written > gc_floor) {
      // Garbage-collect up to a version the protocol could have chosen.
      gc_floor += 1;
      store.GarbageCollect(gc_floor);
      for (auto& [k, rec] : model) rec.Gc(gc_floor);
    }
  }

  // Final deep comparison.
  for (const auto& key : keys) {
    auto dump = store.DumpItem(key);
    auto& rec = model[key];
    ASSERT_EQ(dump.size(), rec.versions.size()) << key;
    for (auto& [v, val] : rec.versions) {
      ASSERT_TRUE(dump.count(v)) << key << " v" << v;
      ASSERT_EQ(dump[v], val) << key << " v" << v;
    }
  }
  EXPECT_LE(store.MaxVersionsObserved(), 4u);  // window of 3 + GC slack
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class UndoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UndoPropertyTest, UndoRestoresExactState) {
  Rng rng(GetParam());
  VersionedStore store;
  store.Seed("k", Value{}, 0);
  for (int round = 0; round < 200; ++round) {
    Version v = 1 + static_cast<Version>(rng.Uniform(2));
    auto before = store.DumpItem("k");
    std::vector<UndoEntry> undo;
    int ops = 1 + static_cast<int>(rng.Uniform(4));
    bool aborted = false;
    for (int i = 0; i < ops; ++i) {
      Operation op = rng.Bernoulli(0.5)
                         ? OpAdd("k", rng.UniformRange(1, 9))
                         : OpPut("k", "r" + std::to_string(round));
      UndoEntry u;
      Status s = store.UpdateExact("k", v, op, &u);
      if (!s.ok()) {
        aborted = true;
        break;
      }
      undo.push_back(std::move(u));
    }
    if (aborted || rng.Bernoulli(0.5)) {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) store.Undo(*it);
      auto after = store.DumpItem("k");
      ASSERT_EQ(after.size(), before.size()) << "round " << round;
      for (auto& [mv, val] : before) {
        ASSERT_TRUE(after.count(mv));
        ASSERT_EQ(after[mv], val) << "round " << round << " v" << mv;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoPropertyTest,
                         ::testing::Values(11, 12, 13, 14));

// Reference model for the differential test below: a store that garbage
// collects eagerly, visiting and relabelling every record on every GC.
// Each method mirrors VersionedStore's documented rule one to one, with no
// shards, fast slots, dirty list or floor, so any difference an observer
// can see is a bug in the store's lazy relabelling.
class EagerStore {
 public:
  using Copies = std::vector<std::pair<Version, Value>>;

  void Seed(const std::string& key, Value value, Version version) {
    Copies& rec = records_[key];
    int idx = FindExact(rec, version);
    if (idx >= 0) {
      rec[idx].second = std::move(value);
    } else {
      rec.emplace_back(version, std::move(value));
      SortCopies(rec);
    }
  }

  int Update(const std::string& key, Version version, const Operation& op,
             std::vector<std::pair<Version, Value>>* after_images) {
    Copies& rec = records_[key];
    if (FindExact(rec, version) < 0) {
      int src = FindLE(rec, version);
      rec.emplace_back(version, src >= 0 ? rec[src].second : Value{});
      SortCopies(rec);
    }
    int applied = 0;
    for (auto& [v, value] : rec) {
      if (v >= version) {
        op.ApplyTo(value);
        after_images->emplace_back(v, value);
        ++applied;
      }
    }
    max_versions_ = std::max(max_versions_, rec.size());
    return applied;
  }

  Status UpdateExact(const std::string& key, Version version,
                     const Operation& op, UndoEntry* undo) {
    Copies& rec = records_[key];
    if (!rec.empty() && rec.back().first > version) {
      return Status::Aborted(key);
    }
    undo->key = key;
    undo->version = version;
    int idx = FindExact(rec, version);
    if (idx < 0) {
      int src = FindLE(rec, version);
      rec.emplace_back(version, src >= 0 ? rec[src].second : Value{});
      idx = static_cast<int>(rec.size()) - 1;
      undo->created = true;
    } else {
      undo->created = false;
      undo->prior = rec[idx].second;
    }
    op.ApplyTo(rec[idx].second);
    max_versions_ = std::max(max_versions_, rec.size());
    return Status::Ok();
  }

  void Undo(const UndoEntry& undo) {
    auto it = records_.find(undo.key);
    if (it == records_.end()) return;
    Copies& rec = it->second;
    int idx = FindExact(rec, undo.version);
    if (idx < 0) return;
    if (undo.created) {
      rec.erase(rec.begin() + idx);
      if (rec.empty()) records_.erase(it);
    } else {
      rec[idx].second = undo.prior;
    }
  }

  // The eager phase-4 rule, applied to every record.
  void GarbageCollect(Version vr_new) {
    for (auto& [key, rec] : records_) {
      if (FindExact(rec, vr_new) >= 0) {
        rec.erase(std::remove_if(
                      rec.begin(), rec.end(),
                      [&](const auto& p) { return p.first < vr_new; }),
                  rec.end());
      } else {
        int idx = FindLE(rec, vr_new);
        if (idx >= 0) {
          rec[idx].first = vr_new;
          rec.erase(rec.begin(), rec.begin() + idx);
        }
      }
    }
  }

  Result<Value> Read(const std::string& key, Version max_version) const {
    auto it = records_.find(key);
    if (it == records_.end()) return Status::NotFound(key);
    int idx = FindLE(it->second, max_version);
    if (idx < 0) return Status::NotFound(key);
    return it->second[idx].second;
  }

  std::vector<Version> VersionsOf(const std::string& key) const {
    std::vector<Version> out;
    auto it = records_.find(key);
    if (it != records_.end()) {
      for (const auto& [v, value] : it->second) out.push_back(v);
    }
    return out;
  }

  std::vector<std::tuple<std::string, Version, Value>> DumpAll() const {
    std::vector<std::tuple<std::string, Version, Value>> out;
    for (const auto& [key, rec] : records_) {
      for (const auto& [v, value] : rec) out.emplace_back(key, v, value);
    }
    return out;  // std::map iteration is already (key, version) order
  }

  size_t KeyCount() const { return records_.size(); }
  size_t MaxVersionsObserved() const { return max_versions_; }

 private:
  static int FindLE(const Copies& rec, Version v) {
    int best = -1;
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec[i].first <= v) best = static_cast<int>(i);
    }
    return best;
  }
  static int FindExact(const Copies& rec, Version v) {
    for (size_t i = 0; i < rec.size(); ++i) {
      if (rec[i].first == v) return static_cast<int>(i);
    }
    return -1;
  }
  static void SortCopies(Copies& rec) {
    std::sort(rec.begin(), rec.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  std::map<std::string, Copies> records_;
  size_t max_versions_ = 0;
};

// Differential test: seeded random sequences of every mutation - including
// seeds and updates below the GC floor, NC updates and their undos, and
// GCs with monotone, repeated and stale versions - run against both the
// store and the eager model, and every observer must agree after every
// step. Most keys sit untouched across many GCs, which is exactly where
// the store's lazy relabelling differs from the eager walk.
class LazyGcDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazyGcDifferentialTest, EveryObserverMatchesEagerGc) {
  Rng rng(GetParam());
  Metrics metrics;
  VersionedStore store(&metrics);
  EagerStore model;
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back((i % 2 == 0 ? "a/" : "b/") + std::to_string(i));
  }
  // Undo entries of NC updates not yet undone, from the store and the
  // model respectively (they must match field for field).
  std::vector<std::pair<UndoEntry, UndoEntry>> open_undos;
  Version last_gc = 0;
  Version top = 0;  // highest version any operation has named

  auto pick_version = [&]() -> Version {
    // Mostly the live window just above the last GC, sometimes below it.
    int64_t lo = static_cast<int64_t>(last_gc) - 2;
    int64_t v = rng.UniformRange(std::max<int64_t>(lo, 0),
                                 static_cast<int64_t>(last_gc) + 3);
    top = std::max(top, static_cast<Version>(v));
    return static_cast<Version>(v);
  };
  auto pick_op = [&](const std::string& key, int step) {
    double d = rng.NextDouble();
    if (d < 0.5) return OpAdd(key, rng.UniformRange(-5, 9));
    if (d < 0.8) return OpInsert(key, 100 + static_cast<uint64_t>(step));
    return OpPut(key, "s" + std::to_string(step % 7));
  };

  for (int step = 0; step < 1500; ++step) {
    const std::string& key = keys[rng.Uniform(keys.size())];
    double dice = rng.NextDouble();
    std::string what;
    if (dice < 0.12) {
      Version v = pick_version();
      Value val;
      val.num = step;
      store.Seed(key, val, v);
      model.Seed(key, val, v);
      what = "Seed v" + std::to_string(v);
    } else if (dice < 0.55) {
      Version v = pick_version();
      Operation op = pick_op(key, step);
      std::vector<std::pair<Version, Value>> got_images, want_images;
      Result<int> got = store.Update(key, v, op, &got_images);
      int want = model.Update(key, v, op, &want_images);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, want) << "Update v" << v << " step " << step;
      ASSERT_EQ(got_images, want_images) << "step " << step;
      what = "Update v" + std::to_string(v);
    } else if (dice < 0.70) {
      Version v = pick_version();
      Operation op = pick_op(key, step);
      UndoEntry got_undo, want_undo;
      Status got = store.UpdateExact(key, v, op, &got_undo);
      Status want = model.UpdateExact(key, v, op, &want_undo);
      ASSERT_EQ(got.code(), want.code()) << "UpdateExact step " << step;
      if (got.ok()) {
        ASSERT_EQ(got_undo.key, want_undo.key);
        ASSERT_EQ(got_undo.version, want_undo.version);
        ASSERT_EQ(got_undo.created, want_undo.created) << "step " << step;
        ASSERT_EQ(got_undo.prior, want_undo.prior) << "step " << step;
        open_undos.emplace_back(std::move(got_undo), std::move(want_undo));
      }
      what = "UpdateExact v" + std::to_string(v);
    } else if (dice < 0.80) {
      if (open_undos.empty()) continue;
      // Usually the newest (abort order), sometimes any.
      size_t i = rng.Bernoulli(0.7) ? open_undos.size() - 1
                                    : rng.Uniform(open_undos.size());
      store.Undo(open_undos[i].first);
      model.Undo(open_undos[i].second);
      open_undos.erase(open_undos.begin() + static_cast<ptrdiff_t>(i));
      what = "Undo";
    } else {
      Version v;
      double g = rng.NextDouble();
      if (g < 0.6) {
        v = last_gc + 1 + rng.Uniform(2);  // monotone
      } else if (g < 0.8) {
        v = last_gc;  // duplicate (a retransmitted kGarbageCollect)
      } else {
        v = last_gc > 0 ? rng.Uniform(last_gc) : 0;  // stale
      }
      store.GarbageCollect(v);
      model.GarbageCollect(v);
      last_gc = std::max(last_gc, v);
      top = std::max(top, v);
      what = "GC " + std::to_string(v);
    }

    const std::string where = " after step " + std::to_string(step) + " (" +
                              what + " on " + key + ")";
    for (const std::string& k : keys) {
      ASSERT_EQ(store.VersionsOf(k), model.VersionsOf(k)) << k << where;
      for (Version v = 0; v <= top + 1; ++v) {
        Result<Value> got = store.Read(k, v);
        Result<Value> want = model.Read(k, v);
        ASSERT_EQ(got.ok(), want.ok()) << k << " v" << v << where;
        if (got.ok()) {
          ASSERT_EQ(*got, *want) << k << " v" << v << where;
        }
        Value into;
        into.num = -12345;
        Status s = store.ReadInto(k, v, &into);
        ASSERT_EQ(s.ok(), want.ok()) << k << " v" << v << where;
        if (s.ok()) {
          ASSERT_EQ(into, *want) << k << " v" << v << where;
        }
      }
    }
    ASSERT_EQ(store.DumpAll(), model.DumpAll()) << where;
    ASSERT_EQ(store.KeyCount(), model.KeyCount()) << where;
    ASSERT_EQ(store.MaxVersionsObserved(), model.MaxVersionsObserved())
        << where;
    const Version scan_at = last_gc + rng.Uniform(3);
    std::vector<std::pair<std::string, Value>> want_scan;
    for (const std::string& k : keys) {
      if (k.rfind("a/", 0) != 0) continue;
      Result<Value> want = model.Read(k, scan_at);
      if (want.ok()) want_scan.emplace_back(k, *want);
    }
    std::sort(want_scan.begin(), want_scan.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(store.ScanPrefix("a/", scan_at), want_scan) << where;
  }
  EXPECT_GT(metrics.gc_records_visited.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyGcDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace threev
