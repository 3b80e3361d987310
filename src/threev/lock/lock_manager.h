#ifndef THREEV_LOCK_LOCK_MANAGER_H_
#define THREEV_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace threev {

// Lock modes of the NC3V extension (Section 5).
//
// Well-behaved transactions take commuting locks (kCommuteRead /
// kCommuteUpdate); non-well-behaved transactions take the classical
// shared/exclusive pair (kNCRead / kNCWrite). Commuting locks are
// compatible with each other - in the absence of non-commuting
// transactions nobody ever waits - but conflict with their non-commuting
// counterparts:
//
//              CR   CU   NCR  NCW
//   CR   (yes) yes  yes  yes  no     - reads commute with reads
//   CU         yes  yes  no   no     - commuting updates conflict with any
//   NCR        yes  no   yes  no       non-commuting access
//   NCW        no   no   no   no
enum class LockMode : uint8_t {
  kCommuteRead = 0,
  kCommuteUpdate = 1,
  kNCRead = 2,
  kNCWrite = 3,
};

bool LocksCompatible(LockMode a, LockMode b);

// Whether `stronger` subsumes `weaker` for re-entrant grants by the same
// owner (CU subsumes CR; NCW subsumes NCR, CU and CR).
bool LockSubsumes(LockMode stronger, LockMode weaker);

// Per-node lock table with asynchronous grants.
//
// Acquire() invokes the callback inline when the lock is free (the common
// case for commuting traffic) and queues a FIFO waiter otherwise; the
// callback then runs from whichever Release/Cancel call unblocks it.
// Owners are transaction ids; all locks of a transaction on this node are
// released together (strict 2PL at transaction granularity).
//
// Single-threaded: the owning node's thread is the only caller (DESIGN.md
// section 6). Callbacks run only after the table update that triggered them
// is complete, so they may re-enter the lock manager.
class LockManager {
 public:
  // granted=false means the request was cancelled (lock timeout).
  using GrantCallback = std::function<void(bool granted)>;

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Requests `mode` on `key` for `owner`. Re-entrant: if the owner already
  // holds a subsuming lock on the key the grant is immediate; holding a
  // weaker lock upgrades when compatible with the other holders (queued
  // otherwise). Fairness: a request that is compatible with the holders
  // but finds a non-empty wait queue goes to the back (no starvation).
  void Acquire(const std::string& key, LockMode mode, uint64_t owner,
               GrantCallback cb);

  // Releases every lock held by `owner`, granting unblocked waiters.
  void ReleaseAll(uint64_t owner);

  // Cancels all waiting (not yet granted) requests of `owner`, invoking
  // their callbacks with granted=false. Returns the number cancelled.
  size_t CancelWaits(uint64_t owner);

  // --- introspection (tests / diagnostics) ---
  size_t HeldCount() const;
  size_t WaiterCount() const;
  bool Holds(const std::string& key, uint64_t owner) const;

 private:
  struct Holder {
    uint64_t owner;
    LockMode mode;
    int count;  // re-entrant acquisitions
  };
  struct Waiter {
    uint64_t owner;
    LockMode mode;
    GrantCallback cb;
  };
  struct KeyState {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
  };

  // Scans `key`'s queue and moves newly grantable waiters into holders,
  // collecting their callbacks. The caller invokes them once it is done
  // with the table.
  void PromoteWaiters(const std::string& key, KeyState& ks,
                            std::vector<GrantCallback>& ready);

  static bool CompatibleWithHolders(const KeyState& ks, LockMode mode,
                                    uint64_t owner);

  std::unordered_map<std::string, KeyState> keys_;
  // owner -> keys it holds (for ReleaseAll).
  std::unordered_map<uint64_t, std::vector<std::string>> owner_keys_;
};

}  // namespace threev

#endif  // THREEV_LOCK_LOCK_MANAGER_H_
