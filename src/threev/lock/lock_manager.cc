#include "threev/lock/lock_manager.h"

#include <algorithm>

namespace threev {

bool LocksCompatible(LockMode a, LockMode b) {
  // See the matrix in the header.
  auto is_commute = [](LockMode m) {
    return m == LockMode::kCommuteRead || m == LockMode::kCommuteUpdate;
  };
  if (is_commute(a) && is_commute(b)) return true;
  if (a == LockMode::kNCWrite || b == LockMode::kNCWrite) return false;
  // Remaining mixed cases involve exactly one NCR.
  if (a == LockMode::kNCRead && b == LockMode::kNCRead) return true;
  // NCR vs commute: compatible only with CR (reads commute with reads).
  LockMode commute = (a == LockMode::kNCRead) ? b : a;
  return commute == LockMode::kCommuteRead;
}

bool LockSubsumes(LockMode stronger, LockMode weaker) {
  if (stronger == weaker) return true;
  if (stronger == LockMode::kNCWrite) return true;
  if (stronger == LockMode::kCommuteUpdate &&
      weaker == LockMode::kCommuteRead) {
    return true;
  }
  if (stronger == LockMode::kNCRead && weaker == LockMode::kCommuteRead) {
    return true;
  }
  return false;
}

bool LockManager::CompatibleWithHolders(const KeyState& ks, LockMode mode,
                                        uint64_t owner) {
  for (const auto& h : ks.holders) {
    if (h.owner == owner) continue;  // self-compatibility handled by caller
    if (!LocksCompatible(h.mode, mode)) return false;
  }
  return true;
}

void LockManager::Acquire(const std::string& key, LockMode mode,
                          uint64_t owner, GrantCallback cb) {
  KeyState& ks = keys_[key];

  // Re-entrant / upgrade path.
  Holder* own = nullptr;
  for (auto& h : ks.holders) {
    if (h.owner == owner) {
      own = &h;
      break;
    }
  }
  if (own != nullptr) {
    if (LockSubsumes(own->mode, mode)) {
      own->count++;
    } else if (CompatibleWithHolders(ks, mode, owner)) {
      own->mode = mode;  // upgrade in place
      own->count++;
    } else {
      ks.waiters.push_back(Waiter{owner, mode, std::move(cb)});
      return;
    }
  } else if (ks.waiters.empty() && CompatibleWithHolders(ks, mode, owner)) {
    ks.holders.push_back(Holder{owner, mode, 1});
    owner_keys_[owner].push_back(key);
  } else {
    ks.waiters.push_back(Waiter{owner, mode, std::move(cb)});
    return;
  }
  cb(true);
}

void LockManager::PromoteWaiters(const std::string& key, KeyState& ks,
                                       std::vector<GrantCallback>& ready) {
  // FIFO: grant from the front while compatible; stop at the first waiter
  // that still conflicts (strict queue order prevents starvation).
  while (!ks.waiters.empty()) {
    Waiter& w = ks.waiters.front();
    if (!CompatibleWithHolders(ks, w.mode, w.owner)) break;
    Holder* own = nullptr;
    for (auto& h : ks.holders) {
      if (h.owner == w.owner) {
        own = &h;
        break;
      }
    }
    if (own != nullptr) {
      if (!LockSubsumes(own->mode, w.mode)) own->mode = w.mode;
      own->count++;
    } else {
      ks.holders.push_back(Holder{w.owner, w.mode, 1});
      owner_keys_[w.owner].push_back(key);
    }
    ready.push_back(std::move(w.cb));
    ks.waiters.pop_front();
  }
}

void LockManager::ReleaseAll(uint64_t owner) {
  auto it = owner_keys_.find(owner);
  if (it == owner_keys_.end()) return;
  std::vector<std::string> held = std::move(it->second);
  owner_keys_.erase(it);
  std::vector<GrantCallback> ready;
  for (const auto& key : held) {
    auto kit = keys_.find(key);
    if (kit == keys_.end()) continue;
    KeyState& ks = kit->second;
    ks.holders.erase(
        std::remove_if(ks.holders.begin(), ks.holders.end(),
                       [&](const Holder& h) { return h.owner == owner; }),
        ks.holders.end());
    PromoteWaiters(key, ks, ready);
    if (ks.holders.empty() && ks.waiters.empty()) keys_.erase(kit);
  }
  for (auto& cb : ready) cb(true);
}

size_t LockManager::CancelWaits(uint64_t owner) {
  std::vector<GrantCallback> cancelled;
  std::vector<GrantCallback> ready;
  for (auto& [key, ks] : keys_) {
    bool removed = false;
    for (auto it = ks.waiters.begin(); it != ks.waiters.end();) {
      if (it->owner == owner) {
        cancelled.push_back(std::move(it->cb));
        it = ks.waiters.erase(it);
        removed = true;
      } else {
        ++it;
      }
    }
    // Removing a (possibly incompatible) waiter from the middle of the
    // FIFO can unblock everyone queued behind it - promote now, or they
    // would wait for an unrelated release that may never come.
    if (removed) PromoteWaiters(key, ks, ready);
  }
  for (auto& cb : cancelled) cb(false);
  for (auto& cb : ready) cb(true);
  return cancelled.size();
}

size_t LockManager::HeldCount() const {
  size_t n = 0;
  for (const auto& [key, ks] : keys_) n += ks.holders.size();
  return n;
}

size_t LockManager::WaiterCount() const {
  size_t n = 0;
  for (const auto& [key, ks] : keys_) n += ks.waiters.size();
  return n;
}

bool LockManager::Holds(const std::string& key, uint64_t owner) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  for (const auto& h : it->second.holders) {
    if (h.owner == owner) return true;
  }
  return false;
}

}  // namespace threev
