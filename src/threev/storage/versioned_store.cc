#include "threev/storage/versioned_store.h"

#include <algorithm>

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

VersionedStore::Entry& VersionedStore::FindOrInsert(const std::string& key) {
  auto it = records_.find(key);
  if (it == records_.end()) it = records_.emplace(key, Record{}).first;
  return *it;
}

Version VersionedStore::OldestLabel(const Entry& e) const {
  const auto& versions = e.second.versions;
  const Version oldest = versions.front().first;
  if (oldest >= floor_ || versions.size() > 1) return oldest;
  // A single copy below the floor is exact only if it was written there,
  // which listed it. Outside tests and checkpoint loading this never
  // happens, and `below_floor_` skips the search.
  if (below_floor_ &&
      std::find(dirty_.begin(), dirty_.end(), &e) != dirty_.end()) {
    return oldest;
  }
  return floor_;
}

int VersionedStore::FindVisible(const Entry& e, Version max_version) const {
  // Only the oldest copy's label can read higher than it is stored.
  int idx = e.second.FindLE(max_version);
  if (idx == 0 && OldestLabel(e) > max_version) return -1;
  return idx;
}

Result<const Value*> VersionedStore::Visible(const std::string& key,
                                             Version max_version) const {
  auto it = records_.find(key);
  if (it == records_.end()) return Status::NotFound(key);
  const int idx = FindVisible(*it, max_version);
  if (idx < 0) {
    return Status::NotFound(key + " has no version <= " +
                            std::to_string(max_version));
  }
  return &it->second.versions[idx].second;
}

void VersionedStore::Settle(Entry& e) {
  auto& versions = e.second.versions;
  if (versions.size() == 1) versions[0].first = OldestLabel(e);
}

void VersionedStore::TrackDirty(Entry& e, size_t copies_before,
                                Version version) {
  const bool below = version < floor_;
  if (below || (copies_before == 1 && e.second.versions.size() == 2)) {
    dirty_.push_back(&e);
  }
  if (below) below_floor_ = true;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status VersionedStore::ReadInto(const std::string& key, Version max_version,
                                Value* out) const {
  Result<const Value*> v = Visible(key, max_version);
  if (!v.ok()) return v.status();
  *out = **v;
  return Status::Ok();
}

Result<Value> VersionedStore::Read(const std::string& key,
                                   Version max_version) const {
  Result<const Value*> v = Visible(key, max_version);
  if (!v.ok()) return v.status();
  return **v;
}

std::vector<std::pair<std::string, Value>> VersionedStore::ScanPrefix(
    const std::string& prefix, Version max_version) const {
  std::vector<std::pair<std::string, Value>> out;
  for (const auto& e : records_) {
    if (e.first.compare(0, prefix.size(), prefix) != 0) continue;
    int idx = FindVisible(e, max_version);
    if (idx >= 0) out.emplace_back(e.first, e.second.versions[idx].second);
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
  Entry& e = FindOrInsert(key);
  Record& rec = e.second;
  Settle(e);
  const size_t copies_before = rec.versions.size();
  int idx = rec.FindExact(version);
  if (idx >= 0) {
    rec.versions[idx].second = std::move(value);
  } else {
    rec.versions.emplace_back(version, std::move(value));
    std::sort(rec.versions.begin(), rec.versions.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  TrackDirty(e, copies_before, version);
}

Result<int> VersionedStore::Update(
    const std::string& key, Version version, const Operation& op,
    std::vector<std::pair<Version, Value>>* after_images) {
  Entry& e = FindOrInsert(key);
  Record& rec = e.second;
  Settle(e);
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
  TrackDirty(e, copies_before, version);
  return applied;
}

Status VersionedStore::UpdateExact(const std::string& key, Version version,
                                   const Operation& op, UndoEntry* undo,
                                   Value* after_image) {
  Entry& e = FindOrInsert(key);
  Record& rec = e.second;
  Settle(e);
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
  TrackDirty(e, copies_before, version);
  return Status::Ok();
}

void VersionedStore::Undo(const UndoEntry& undo) {
  auto it = records_.find(undo.key);
  if (it == records_.end()) return;
  Record& rec = it->second;
  Settle(*it);
  int idx = rec.FindExact(undo.version);
  if (idx < 0) return;
  if (!undo.created) {
    rec.versions[idx].second = undo.prior;
    return;
  }
  rec.versions.erase(rec.versions.begin() + idx);
  if (rec.versions.empty()) {
    std::erase(dirty_, &*it);
    records_.erase(it);
  }
  // A record left with one copy stays listed until the next GC, which
  // keeps its label exact in the meantime.
}

void VersionedStore::GarbageCollect(Version vr_new) {
  // Raising the floor relabels every unlisted record at once.
  floor_ = std::max(floor_, vr_new);

  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  const int64_t visited = static_cast<int64_t>(dirty_.size());
  bool below_floor = false;
  size_t kept = 0;
  for (Entry* e : dirty_) {
    Record& rec = e->second;
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
        rec.versions.erase(rec.versions.begin(), rec.versions.begin() + idx);
      }
    }
    // A single copy at or above the floor reads the same listed or not.
    const bool low = rec.versions.front().first < floor_;
    if (rec.versions.size() > 1 || low) {
      dirty_[kept++] = e;
      below_floor = below_floor || low;
    }
  }
  dirty_.resize(kept);
  below_floor_ = below_floor;
  if (metrics_ != nullptr) {
    metrics_->gc_records_visited.fetch_add(visited,
                                           std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<Version> VersionedStore::VersionsOf(const std::string& key) const {
  std::vector<Version> out;
  auto it = records_.find(key);
  if (it != records_.end()) {
    for (const auto& [v, value] : it->second.versions) out.push_back(v);
    out[0] = OldestLabel(*it);
  }
  return out;
}

std::map<Version, Value> VersionedStore::DumpItem(
    const std::string& key) const {
  std::map<Version, Value> out;
  auto it = records_.find(key);
  if (it != records_.end()) {
    const Version oldest = OldestLabel(*it);
    for (const auto& [v, value] : it->second.versions) {
      out[std::max(v, oldest)] = value;
    }
  }
  return out;
}

std::vector<std::tuple<std::string, Version, Value>> VersionedStore::DumpAll()
    const {
  std::vector<std::tuple<std::string, Version, Value>> out;
  for (const auto& e : records_) {
    const Version oldest = OldestLabel(e);
    for (const auto& [v, value] : e.second.versions) {
      out.emplace_back(e.first, std::max(v, oldest), value);
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
  out.reserve(records_.size());
  for (const auto& [key, rec] : records_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

size_t VersionedStore::KeyCount() const { return records_.size(); }

}  // namespace threev
