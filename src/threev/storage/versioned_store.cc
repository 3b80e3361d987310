#include "threev/storage/versioned_store.h"

#include <algorithm>

#if defined(__GNUC__) || defined(__clang__)
#define THREEV_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define THREEV_ALWAYS_INLINE inline
#endif

namespace threev {

int VersionedStore::Record::FindLE(Version v) const {
  int best = -1;
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i].first <= v) best = static_cast<int>(i);
  }
  return best;
}

int VersionedStore::Record::FindExact(Version v) const {
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i].first == v) return static_cast<int>(i);
  }
  return -1;
}

VersionedStore::VersionedStore(Metrics* metrics) : metrics_(metrics) {}

// ---------------------------------------------------------------------------
// Effective labels and the dirty list (DESIGN.md section 11)
// ---------------------------------------------------------------------------

Version VersionedStore::OldestLabel(const Shard& shard, const Entry& e,
                                    Version floor) {
  const auto& versions = e.second.versions;
  const Version oldest = versions.front().first;
  if (oldest >= floor || versions.size() > 1) return oldest;
  // A single copy below the floor is exact only if it was written there,
  // which listed it. Outside tests and checkpoint loading this never
  // happens, and `below_floor` skips the search.
  if (shard.below_floor &&
      std::find(shard.dirty.begin(), shard.dirty.end(), &e) !=
          shard.dirty.end()) {
    return oldest;
  }
  return floor;
}

int VersionedStore::FindVisible(const Shard& shard, const Entry& e,
                                Version max_version, Version floor) {
  // Only the oldest copy's label can read higher than it is stored.
  int idx = e.second.FindLE(max_version);
  if (idx == 0 && OldestLabel(shard, e, floor) > max_version) return -1;
  return idx;
}

void VersionedStore::Settle(Shard& shard, Entry& e, Version floor) {
  auto& versions = e.second.versions;
  if (versions.size() == 1) versions[0].first = OldestLabel(shard, e, floor);
}

void VersionedStore::TrackDirty(Shard& shard, Entry& e, size_t copies_before,
                                Version version, Version floor) {
  const bool below = version < floor;
  if (below || (copies_before == 1 && e.second.versions.size() == 2)) {
    shard.dirty.push_back(&e);
  }
  if (below) shard.below_floor = true;
}

// ---------------------------------------------------------------------------
// Fast-slot seqlock (DESIGN.md section 11)
// ---------------------------------------------------------------------------

void VersionedStore::RefreshSlot(Shard& shard, size_t hash,
                                 std::string_view key, const Record* rec,
                                 Version floor) {
  FastSlot& slot = shard.slots[SlotIndex(hash)];
  const bool eligible =
      rec != nullptr && rec->versions.size() == 1 &&
      rec->versions[0].first >= floor &&
      key.size() <= FastSlot::kKeyWords * 8 &&
      rec->versions[0].second.ids.empty() &&
      rec->versions[0].second.str.size() <= FastSlot::kStrWords * 8;

  // Occupancy check is race-free: slots are only written under the shard's
  // exclusive lock, which we hold.
  uint32_t cur_key_len = slot.lens.load(std::memory_order_relaxed) & 0xffu;
  bool occupied_by_key = false;
  if (cur_key_len != 0 && cur_key_len == key.size()) {
    uint64_t kw[FastSlot::kKeyWords];
    for (size_t i = 0; i < FastSlot::kKeyWords; ++i) {
      kw[i] = slot.key_words[i].load(std::memory_order_relaxed);
    }
    occupied_by_key = std::memcmp(kw, key.data(), cur_key_len) == 0;
  }
  // Ineligible records only need a write if they currently occupy the slot
  // (a stale entry for a different key stays valid for that key).
  if (!eligible && !occupied_by_key) return;

  // Seqlock publish: odd seq marks the write in progress; the release
  // fence orders the odd store before the payload, the final release store
  // orders the payload before the even seq readers validate against.
  uint32_t s = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  if (!eligible) {
    slot.lens.store(FastSlot::kEmpty, std::memory_order_relaxed);
  } else {
    const Value& v = rec->versions[0].second;
    slot.lens.store(static_cast<uint32_t>(key.size()) |
                        (static_cast<uint32_t>(v.str.size()) << 8),
                    std::memory_order_relaxed);
    slot.version.store(rec->versions[0].first, std::memory_order_relaxed);
    slot.num.store(v.num, std::memory_order_relaxed);
    uint64_t kw[FastSlot::kKeyWords] = {};
    std::memcpy(kw, key.data(), key.size());
    for (size_t i = 0; i < FastSlot::kKeyWords; ++i) {
      slot.key_words[i].store(kw[i], std::memory_order_relaxed);
    }
    uint64_t sw[FastSlot::kStrWords] = {};
    std::memcpy(sw, v.str.data(), v.str.size());
    for (size_t i = 0; i < FastSlot::kStrWords; ++i) {
      slot.str_words[i].store(sw[i], std::memory_order_relaxed);
    }
  }
  slot.seq.store(s + 2, std::memory_order_release);
}

// SAFETY: lock-free by design. `slots` is GUARDED_BY(mu) for writers; this
// reader validates its snapshot with the seqlock protocol instead of the
// lock (see the retry argument in DESIGN.md section 11). Every cell is a
// std::atomic, so the unsynchronized loads are UB-free; a torn or
// concurrent read is detected by the seq re-check and retried or handed to
// the shared-lock fallback.
//
// Forced inline: this is the per-read cost floor, and the ~10-cycle call
// frame would otherwise be the single largest line item on it.
THREEV_ALWAYS_INLINE
bool VersionedStore::TryReadFast(const Shard& shard, size_t hash,
                                 std::string_view key, Version max_version,
                                 Value* out) const NO_THREAD_SAFETY_ANALYSIS {
  const FastSlot& slot = shard.slots[SlotIndex(hash)];
  const size_t key_len = key.size();
  if (key_len == 0 || key_len > FastSlot::kKeyWords * 8) return false;
  // Zero-padded probe copy, hoisted out of the retry loop. Published slots
  // zero-pad the last key word, so word equality is exact key equality.
  const size_t key_words = (key_len + 7) / 8;
  uint64_t want[FastSlot::kKeyWords];
  want[key_words - 1] = 0;
  std::memcpy(want, key.data(), key_len);
  for (int attempt = 0; attempt < 3; ++attempt) {
    uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 & 1u) return false;  // publish in progress; take the lock
    uint32_t lens = slot.lens.load(std::memory_order_relaxed);
    // Any early mismatch exit is safe without seq validation: `false` only
    // routes the read to the authoritative shared-lock path. Only a `true`
    // return needs the fence + seq re-check below.
    if ((lens & 0xffu) != key_len) return false;
    bool match = true;
    for (size_t i = 0; i < key_words; ++i) {
      if (slot.key_words[i].load(std::memory_order_relaxed) != want[i]) {
        match = false;
        break;
      }
    }
    if (!match) return false;
    uint64_t version = slot.version.load(std::memory_order_relaxed);
    int64_t num = slot.num.load(std::memory_order_relaxed);
    const uint32_t str_len = (lens >> 8) & 0xffu;
    uint64_t sw[FastSlot::kStrWords];
    for (size_t i = 0; i < (str_len + 7) / 8; ++i) {
      sw[i] = slot.str_words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn

    // Validated snapshot; decide entirely from the copied-out state. The
    // slot's label reads as at least the floor, like every unlisted record.
    if (version > max_version ||
        floor_.load(std::memory_order_relaxed) > max_version) {
      return false;  // locked path decides NotFound
    }
    out->num = num;
    out->ids.clear();
    if (str_len == 0) {
      out->str.clear();
    } else {
      out->str.assign(reinterpret_cast<const char*>(sw), str_len);
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status VersionedStore::ReadInto(const std::string& key, Version max_version,
                                Value* out) const {
  const size_t hash = HashKey(key);
  const Shard& shard = ShardFor(hash);
  if (TryReadFast(shard, hash, key, max_version, out)) return Status::Ok();
  ReaderMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{key, hash});
  if (it == shard.records.end()) return Status::NotFound(key);
  int idx = FindVisible(shard, *it, max_version,
                        floor_.load(std::memory_order_relaxed));
  if (idx < 0) {
    return Status::NotFound(key + " has no version <= " +
                            std::to_string(max_version));
  }
  *out = it->second.versions[idx].second;
  return Status::Ok();
}

Result<Value> VersionedStore::Read(const std::string& key,
                                   Version max_version) const {
  const size_t hash = HashKey(key);
  const Shard& shard = ShardFor(hash);
  {
    // Fill through an in-place result: the fast path constructs exactly
    // one Value and never touches the shard lock.
    Result<Value> res{Value{}};
    if (TryReadFast(shard, hash, key, max_version, &*res)) return res;
  }
  ReaderMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{key, hash});
  if (it == shard.records.end()) return Status::NotFound(key);
  int idx = FindVisible(shard, *it, max_version,
                        floor_.load(std::memory_order_relaxed));
  if (idx < 0) {
    return Status::NotFound(key + " has no version <= " +
                            std::to_string(max_version));
  }
  return it->second.versions[idx].second;
}

std::vector<std::pair<std::string, Value>> VersionedStore::ScanPrefix(
    const std::string& prefix, Version max_version) const {
  std::vector<std::pair<std::string, Value>> out;
  const Version floor = floor_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    for (const auto& e : shard.records) {
      if (e.first.compare(0, prefix.size(), prefix) != 0) continue;
      int idx = FindVisible(shard, e, max_version, floor);
      if (idx >= 0) out.emplace_back(e.first, e.second.versions[idx].second);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

void VersionedStore::Seed(const std::string& key, Value value,
                          Version version) {
  const size_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
  SharedMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{key, hash});
  if (it == shard.records.end()) {
    it = shard.records.emplace(key, Record{}).first;
  }
  Record& rec = it->second;
  const Version floor = floor_.load(std::memory_order_relaxed);
  Settle(shard, *it, floor);
  const size_t copies_before = rec.versions.size();
  int idx = rec.FindExact(version);
  if (idx >= 0) {
    rec.versions[idx].second = std::move(value);
  } else {
    rec.versions.emplace_back(version, std::move(value));
    std::sort(rec.versions.begin(), rec.versions.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  TrackDirty(shard, *it, copies_before, version, floor);
  RefreshSlot(shard, hash, key, &rec, floor);
}

Result<int> VersionedStore::Update(
    const std::string& key, Version version, const Operation& op,
    std::vector<std::pair<Version, Value>>* after_images) {
  const size_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
  SharedMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{key, hash});
  if (it == shard.records.end()) {
    it = shard.records.emplace(key, Record{}).first;
  }
  Record& rec = it->second;
  const Version floor = floor_.load(std::memory_order_relaxed);
  Settle(shard, *it, floor);
  const size_t copies_before = rec.versions.size();

  // Atomic check-and-create of key(version): copy the maximum existing
  // version <= `version`, or start from an empty value for a fresh key.
  if (rec.FindExact(version) < 0) {
    int src = rec.FindLE(version);
    Value copy = (src >= 0) ? rec.versions[src].second : Value{};
    if (src >= 0 && metrics_ != nullptr) {
      metrics_->version_copies.fetch_add(1, std::memory_order_relaxed);
      metrics_->bytes_copied.fetch_add(
          static_cast<int64_t>(copy.ByteSize()), std::memory_order_relaxed);
    }
    rec.versions.emplace_back(version, std::move(copy));
    std::sort(rec.versions.begin(), rec.versions.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  // Apply to every version >= `version` (Section 4.1 step 4). When newer
  // versions exist this straggler write lands in both copies, keeping the
  // new version consistent with the old one.
  int applied = 0;
  for (auto& [v, value] : rec.versions) {
    if (v >= version) {
      op.ApplyTo(value);
      if (after_images != nullptr) after_images->emplace_back(v, value);
      ++applied;
    }
  }
  if (applied > 1 && metrics_ != nullptr) {
    metrics_->dual_version_writes.fetch_add(applied - 1,
                                            std::memory_order_relaxed);
  }
  NoteVersionCount(rec.versions.size());
  TrackDirty(shard, *it, copies_before, version, floor);
  RefreshSlot(shard, hash, key, &rec, floor);
  return applied;
}

Status VersionedStore::UpdateExact(const std::string& key, Version version,
                                   const Operation& op, UndoEntry* undo,
                                   Value* after_image) {
  const size_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
  SharedMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{key, hash});
  if (it == shard.records.end()) {
    it = shard.records.emplace(key, Record{}).first;
  }
  Record& rec = it->second;
  const Version floor = floor_.load(std::memory_order_relaxed);
  Settle(shard, *it, floor);
  const size_t copies_before = rec.versions.size();

  // NC3V step 4: abort if the item already exists in a newer version (a
  // concurrent transaction of a later version has touched it; serializing
  // this transaction before it would be incorrect).
  if (!rec.versions.empty() && rec.versions.back().first > version) {
    return Status::Aborted(key + " exists in version " +
                           std::to_string(rec.versions.back().first) + " > " +
                           std::to_string(version));
  }

  undo->key = key;
  undo->version = version;
  int idx = rec.FindExact(version);
  if (idx < 0) {
    int src = rec.FindLE(version);
    Value copy = (src >= 0) ? rec.versions[src].second : Value{};
    if (src >= 0 && metrics_ != nullptr) {
      metrics_->version_copies.fetch_add(1, std::memory_order_relaxed);
      metrics_->bytes_copied.fetch_add(
          static_cast<int64_t>(copy.ByteSize()), std::memory_order_relaxed);
    }
    rec.versions.emplace_back(version, std::move(copy));
    idx = static_cast<int>(rec.versions.size()) - 1;
    undo->created = true;
  } else {
    undo->created = false;
    undo->prior = rec.versions[idx].second;
  }
  op.ApplyTo(rec.versions[idx].second);
  if (after_image != nullptr) *after_image = rec.versions[idx].second;
  NoteVersionCount(rec.versions.size());
  TrackDirty(shard, *it, copies_before, version, floor);
  RefreshSlot(shard, hash, key, &rec, floor);
  return Status::Ok();
}

void VersionedStore::Undo(const UndoEntry& undo) {
  const size_t hash = HashKey(undo.key);
  Shard& shard = ShardFor(hash);
  SharedMutexLock lock(shard.mu);
  auto it = shard.records.find(HashedKey{undo.key, hash});
  if (it == shard.records.end()) return;
  Record& rec = it->second;
  const Version floor = floor_.load(std::memory_order_relaxed);
  Settle(shard, *it, floor);
  int idx = rec.FindExact(undo.version);
  if (idx < 0) return;
  if (undo.created) {
    rec.versions.erase(rec.versions.begin() + idx);
    if (rec.versions.empty()) {
      std::erase(shard.dirty, &*it);
      shard.records.erase(it);
      RefreshSlot(shard, hash, undo.key, nullptr, floor);
      return;
    }
  } else {
    rec.versions[idx].second = undo.prior;
  }
  // A record left with one copy stays listed until the next GC, which
  // keeps its label exact in the meantime.
  RefreshSlot(shard, hash, undo.key, &rec, floor);
}

void VersionedStore::GarbageCollect(Version vr_new) {
  // Raise the floor first: that relabels every unlisted record at once, so
  // a writer racing this GC in a shard not yet visited already sees the
  // relabelled copy, as it would after an eager pass over that shard.
  Version floor = floor_.load(std::memory_order_relaxed);
  while (vr_new > floor && !floor_.compare_exchange_weak(
                               floor, vr_new, std::memory_order_relaxed)) {
  }
  floor = std::max(floor, vr_new);

  int64_t visited = 0;
  for (auto& shard : shards_) {
    SharedMutexLock lock(shard.mu);
    auto& dirty = shard.dirty;
    if (dirty.empty()) continue;
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    visited += static_cast<int64_t>(dirty.size());
    bool below_floor = false;
    size_t kept = 0;
    for (Entry* e : dirty) {
      Record& rec = e->second;
      const size_t copies = rec.versions.size();
      const Version oldest = rec.versions.front().first;
      if (rec.FindExact(vr_new) >= 0) {
        // Drop every version older than vr_new.
        rec.versions.erase(
            std::remove_if(rec.versions.begin(), rec.versions.end(),
                           [&](const auto& p) { return p.first < vr_new; }),
            rec.versions.end());
      } else {
        // Relabel the latest version older than vr_new as vr_new, dropping
        // anything before it.
        int idx = rec.FindLE(vr_new);
        if (idx >= 0) {
          rec.versions[idx].first = vr_new;
          rec.versions.erase(rec.versions.begin(),
                             rec.versions.begin() + idx);
        }
      }
      if (rec.versions.size() != copies ||
          rec.versions.front().first != oldest) {
        RefreshSlot(shard, HashKey(e->first), e->first, &rec, floor);
      }
      // A single copy at or above the floor reads the same listed or not.
      const bool low = rec.versions.front().first < floor;
      if (rec.versions.size() > 1 || low) {
        dirty[kept++] = e;
        below_floor = below_floor || low;
      }
    }
    dirty.resize(kept);
    shard.below_floor = below_floor;
  }
  if (metrics_ != nullptr) {
    metrics_->gc_records_visited.fetch_add(visited,
                                           std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<Version> VersionedStore::VersionsOf(const std::string& key) const {
  const size_t hash = HashKey(key);
  const Shard& shard = ShardFor(hash);
  ReaderMutexLock lock(shard.mu);
  std::vector<Version> out;
  auto it = shard.records.find(HashedKey{key, hash});
  if (it != shard.records.end()) {
    for (const auto& [v, value] : it->second.versions) out.push_back(v);
    out[0] = OldestLabel(shard, *it, floor_.load(std::memory_order_relaxed));
  }
  return out;
}

std::map<Version, Value> VersionedStore::DumpItem(
    const std::string& key) const {
  const size_t hash = HashKey(key);
  const Shard& shard = ShardFor(hash);
  ReaderMutexLock lock(shard.mu);
  std::map<Version, Value> out;
  auto it = shard.records.find(HashedKey{key, hash});
  if (it != shard.records.end()) {
    const Version oldest =
        OldestLabel(shard, *it, floor_.load(std::memory_order_relaxed));
    for (const auto& [v, value] : it->second.versions) {
      out[std::max(v, oldest)] = value;
    }
  }
  return out;
}

std::vector<std::tuple<std::string, Version, Value>> VersionedStore::DumpAll()
    const {
  std::vector<std::tuple<std::string, Version, Value>> out;
  const Version floor = floor_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    for (const auto& e : shard.records) {
      const Version oldest = OldestLabel(shard, e, floor);
      for (const auto& [v, value] : e.second.versions) {
        out.emplace_back(e.first, std::max(v, oldest), value);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
    return std::get<1>(a) < std::get<1>(b);
  });
  return out;
}

std::vector<std::string> VersionedStore::Keys() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    for (const auto& [key, rec] : shard.records) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t VersionedStore::KeyCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    n += shard.records.size();
  }
  return n;
}

}  // namespace threev
