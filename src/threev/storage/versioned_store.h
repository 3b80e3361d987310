#ifndef THREEV_STORAGE_VERSIONED_STORE_H_
#define THREEV_STORAGE_VERSIONED_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "threev/common/ids.h"
#include "threev/common/status.h"
#include "threev/metrics/metrics.h"
#include "threev/txn/operation.h"

namespace threev {

// Undo information for one non-commuting update, replayed in reverse on
// abort (NC3V rollback; Section 3.2 treats well-behaved aborts via
// compensating subtransactions instead).
struct UndoEntry {
  std::string key;
  Version version = 0;
  bool created = false;  // the version copy was created by this update
  Value prior;           // value before the update (unused if created)
};

// In-memory multiversioned key-value store for one node.
//
// Implements exactly the data rules of Section 4 of the paper:
//  * Read(k, v): the maximum existing version of k that does not exceed v.
//  * Update(k, v, op): atomically check-and-create k(v) by copying the
//    maximum existing version <= v ("copy on update"), then apply op to
//    every version >= v (this is what keeps an old-version straggler's
//    effect visible in the newer version too - the "dual write").
//  * UpdateExact(k, v, op): the NC3V variant - fails if any version > v
//    exists, creates k(v) if needed, applies only to k(v).
//  * GarbageCollect(vr_new): for every item, if k(vr_new) exists drop all
//    earlier versions, else relabel the latest earlier version as vr_new.
//    The cost is the number of items written since the last GC, not the
//    number stored: the store keeps a dirty list of the records holding
//    more than one copy or a copy written below the floor, and GC applies
//    the rule to those only. The store keeps `floor_`, the highest vr_new
//    collected so far; an unlisted single-copy record keeps its old label
//    and reads with the effective label max(label, floor_), which is
//    exactly what relabelling it would have written. A stale or repeated
//    GC leaves the floor where it is.
//
// Threading (DESIGN.md section 6): the owning node's thread is the only
// writer, so the store takes no locks and an update (check-create + apply)
// is one atomic step, as the paper requires, by construction. Const
// methods may run on several threads at once while nothing writes (a
// quiescent node, or a benchmark's readers). MaxVersionsObserved, the
// maximum number of simultaneous versions ever observed (the paper proves
// <= 3), may be read from any thread at any time.
class VersionedStore {
 public:
  // `metrics` (optional, unowned) receives copy-on-update accounting.
  explicit VersionedStore(Metrics* metrics = nullptr);

  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  // Installs initial data at `version` (typically 0), replacing any
  // existing copy of that version.
  void Seed(const std::string& key, Value value, Version version = 0);

  // Reads the maximum existing version of `key` not exceeding `max_version`.
  // NotFound if the key does not exist or has only newer versions.
  Result<Value> Read(const std::string& key, Version max_version) const;

  // Copy-elision variant of Read for hot loops: assigns the result into
  // `*out`, reusing its heap capacity across calls (no allocation when the
  // value shape is stable). Same contract as Read; on NotFound `*out` is
  // left unchanged (callers that pre-default it get read-as-empty-record
  // semantics for free).
  Status ReadInto(const std::string& key, Version max_version,
                  Value* out) const;

  // Reads every key starting with `prefix`, each at its maximum existing
  // version not exceeding `max_version`; keys with no such version are
  // skipped. Sorted by key. Serves audit/bill-generation scans of
  // read-only transactions (which run against a frozen version, so the
  // scan is stable without any locking).
  std::vector<std::pair<std::string, Value>> ScanPrefix(
      const std::string& prefix, Version max_version) const;

  // 3V update (Section 4.1, step 4). Returns the number of version copies
  // the operation was applied to (>= 1; > 1 is a straggler dual-write).
  // Creates the key (empty value) if it does not exist at all.
  // `after_images` (optional) receives one (version, value-after) pair per
  // touched copy, captured inside the atomic step - the WAL's redo images.
  Result<int> Update(const std::string& key, Version version,
                     const Operation& op,
                     std::vector<std::pair<Version, Value>>* after_images =
                         nullptr);

  // NC3V update (Section 5, step 4): aborts with kAborted if a version
  // greater than `version` exists; otherwise check-and-create k(version)
  // and apply `op` to that version only. Fills `undo` (required) and
  // `after_image` (optional: the value after the update, for redo logging).
  Status UpdateExact(const std::string& key, Version version,
                     const Operation& op, UndoEntry* undo,
                     Value* after_image = nullptr);

  // Reverts one UpdateExact.
  void Undo(const UndoEntry& undo);

  // Phase-4 garbage collection (Section 4.3). Visits only the dirty-listed
  // records; counts them into Metrics::gc_records_visited.
  void GarbageCollect(Version vr_new);

  // --- Introspection (tests, invariant auditing, Figure 2 replay) --------

  // Existing version numbers of `key`, ascending. Empty if unknown key.
  std::vector<Version> VersionsOf(const std::string& key) const;

  // Version -> value snapshot for one key.
  std::map<Version, Value> DumpItem(const std::string& key) const;

  // Every (key, version, value) copy, sorted by key then version. Feeds
  // checkpoint snapshots.
  std::vector<std::tuple<std::string, Version, Value>> DumpAll() const;

  std::vector<std::string> Keys() const;
  size_t KeyCount() const;

  // Maximum number of simultaneous versions of any single item ever
  // observed on this store (the paper's bound is 3).
  size_t MaxVersionsObserved() const {
    return max_versions_observed_.load(std::memory_order_relaxed);
  }

 private:
  struct Record {
    // Sorted ascending by version; tiny (<= 3 entries), so a flat vector.
    std::vector<std::pair<Version, Value>> versions;

    // Index of max version <= v, or -1.
    int FindLE(Version v) const;
    int FindExact(Version v) const;
  };

  static size_t HashKey(std::string_view key) {
    // Keys up to 16 bytes (the common account-id shape) hash branch-light:
    // two possibly-overlapping 8-byte loads and two multiplies, no loop.
    // Longer keys fall back to a word-at-a-time FNV walk. Both paths fold
    // in the length (so prefix keys padded with NULs hash apart) and end
    // with an xor-shift so the bucket index depends on every input byte.
    const char* p = key.data();
    size_t n = key.size();
    constexpr uint64_t kPrime = 1099511628211ull;  // FNV prime
    if (n <= 16) {
      uint64_t a = 0, b = 0;
      if (n >= 8) {
        std::memcpy(&a, p, 8);
        std::memcpy(&b, p + n - 8, 8);
      } else if (n > 0) {
        std::memcpy(&a, p, n);
      }
      uint64_t h = (a ^ 0x9e3779b97f4a7c15ull) * kPrime;
      h = (h ^ b ^ (static_cast<uint64_t>(n) << 56)) * kPrime;
      return static_cast<size_t>(h ^ (h >> 32));
    }
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * kPrime;
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      uint64_t w = static_cast<uint64_t>(n) << 56;
      std::memcpy(&w, p, n);
      h = (h ^ w) * kPrime;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
  struct KeyHash {
    size_t operator()(const std::string& k) const { return HashKey(k); }
  };
  using RecordMap = std::unordered_map<std::string, Record, KeyHash>;
  // A map node. Its address survives rehashing, so the dirty list can point
  // at it instead of copying the key.
  using Entry = RecordMap::value_type;

  // Returns the record for `key`, inserting an empty one if it is new.
  Entry& FindOrInsert(const std::string& key);
  // Effective label of the oldest copy of `e`: the stored label, except
  // that an unlisted single-copy record reads as at least floor_ (the
  // relabel GC skipped). Listed records carry exact labels.
  Version OldestLabel(const Entry& e) const;
  // Index of the newest copy of `e` visible at `max_version`, or -1.
  int FindVisible(const Entry& e, Version max_version) const;
  // The copy of `key` visible at `max_version`; NotFound as Read reports it.
  Result<const Value*> Visible(const std::string& key,
                               Version max_version) const;
  // Writes the effective label into a single-copy record, so a mutation
  // sees exactly the copies an eager GC would have left.
  void Settle(Entry& e);
  // Lists `e` for the next GC after a write at `version` if the write gave
  // it its second copy or landed below the floor.
  void TrackDirty(Entry& e, size_t copies_before, Version version);

  void NoteVersionCount(size_t n) {
    // Single writer: a plain load/store pair cannot lose a maximum.
    if (n > max_versions_observed_.load(std::memory_order_relaxed)) {
      max_versions_observed_.store(n, std::memory_order_relaxed);
    }
  }

  Metrics* metrics_;  // unowned, may be null
  RecordMap records_;
  // Records the next GC must visit: each record holding more than one
  // copy, and each record written below the floor. Erasing a record
  // removes it here; a record may appear twice, which GC folds.
  std::vector<Entry*> dirty_;
  // Set by a write below the floor, recomputed by each GC. While clear, no
  // single-copy record below the floor is listed, so OldestLabel need not
  // search `dirty_`.
  bool below_floor_ = false;
  // Highest vr_new collected so far; raised with max, never lowered.
  Version floor_ = 0;
  std::atomic<size_t> max_versions_observed_{0};
};

}  // namespace threev

#endif  // THREEV_STORAGE_VERSIONED_STORE_H_
