#include "threev/lock/lock_manager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "threev/common/random.h"

namespace threev {
namespace {

// Records grant outcomes for assertions.
struct Grant {
  bool fired = false;
  bool granted = false;
  LockManager::GrantCallback cb() {
    return [this](bool g) {
      fired = true;
      granted = g;
    };
  }
};

TEST(LockCompatibilityTest, MatrixMatchesPaper) {
  using L = LockMode;
  // Commuting locks are compatible with each other...
  EXPECT_TRUE(LocksCompatible(L::kCommuteRead, L::kCommuteRead));
  EXPECT_TRUE(LocksCompatible(L::kCommuteRead, L::kCommuteUpdate));
  EXPECT_TRUE(LocksCompatible(L::kCommuteUpdate, L::kCommuteUpdate));
  // ...but not with their non-commuting counterparts.
  EXPECT_FALSE(LocksCompatible(L::kCommuteUpdate, L::kNCRead));
  EXPECT_FALSE(LocksCompatible(L::kCommuteUpdate, L::kNCWrite));
  EXPECT_FALSE(LocksCompatible(L::kCommuteRead, L::kNCWrite));
  // Reads commute with reads regardless of class.
  EXPECT_TRUE(LocksCompatible(L::kCommuteRead, L::kNCRead));
  // Classical S/X semantics among non-commuting locks.
  EXPECT_TRUE(LocksCompatible(L::kNCRead, L::kNCRead));
  EXPECT_FALSE(LocksCompatible(L::kNCRead, L::kNCWrite));
  EXPECT_FALSE(LocksCompatible(L::kNCWrite, L::kNCWrite));
  // Symmetry.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(LocksCompatible(static_cast<L>(a), static_cast<L>(b)),
                LocksCompatible(static_cast<L>(b), static_cast<L>(a)));
    }
  }
}

TEST(LockManagerTest, CommutingNeverWaitOnEachOther) {
  LockManager lm;
  Grant g1, g2, g3;
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, g1.cb());
  lm.Acquire("x", LockMode::kCommuteUpdate, 2, g2.cb());
  lm.Acquire("x", LockMode::kCommuteRead, 3, g3.cb());
  EXPECT_TRUE(g1.fired && g1.granted);
  EXPECT_TRUE(g2.fired && g2.granted);
  EXPECT_TRUE(g3.fired && g3.granted);
  EXPECT_EQ(lm.WaiterCount(), 0u);
}

TEST(LockManagerTest, NCWriteBlocksAndIsGrantedOnRelease) {
  LockManager lm;
  Grant cu, ncw;
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, cu.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, ncw.cb());
  EXPECT_TRUE(cu.granted);
  EXPECT_FALSE(ncw.fired);
  EXPECT_EQ(lm.WaiterCount(), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(ncw.fired && ncw.granted);
  EXPECT_TRUE(lm.Holds("x", 2));
}

TEST(LockManagerTest, FairFifoPreventsStarvation) {
  LockManager lm;
  Grant cu1, ncw, cu2;
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, cu1.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, ncw.cb());
  // A later commuting request would be compatible with holder 1, but must
  // queue behind the waiting NCW so it cannot starve.
  lm.Acquire("x", LockMode::kCommuteUpdate, 3, cu2.cb());
  EXPECT_FALSE(cu2.fired);
  lm.ReleaseAll(1);
  EXPECT_TRUE(ncw.granted);
  EXPECT_FALSE(cu2.fired);
  lm.ReleaseAll(2);
  EXPECT_TRUE(cu2.granted);
}

TEST(LockManagerTest, ReentrantSameOwner) {
  LockManager lm;
  Grant a, b;
  lm.Acquire("x", LockMode::kNCWrite, 1, a.cb());
  lm.Acquire("x", LockMode::kNCRead, 1, b.cb());  // subsumed
  EXPECT_TRUE(a.granted && b.granted);
  EXPECT_EQ(lm.HeldCount(), 1u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(LockManagerTest, UpgradeWhenCompatible) {
  LockManager lm;
  Grant cr, cu;
  lm.Acquire("x", LockMode::kCommuteRead, 1, cr.cb());
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, cu.cb());  // upgrade
  EXPECT_TRUE(cu.granted);
}

TEST(LockManagerTest, UpgradeBlockedByConflictingHolder) {
  LockManager lm;
  Grant r1, r2, w1;
  lm.Acquire("x", LockMode::kNCRead, 1, r1.cb());
  lm.Acquire("x", LockMode::kNCRead, 2, r2.cb());
  lm.Acquire("x", LockMode::kNCWrite, 1, w1.cb());  // upgrade blocked by 2
  EXPECT_FALSE(w1.fired);
  lm.ReleaseAll(2);
  EXPECT_TRUE(w1.fired && w1.granted);
}

TEST(LockManagerTest, CancelWaitsFiresFalse) {
  LockManager lm;
  Grant w, waiter;
  lm.Acquire("x", LockMode::kNCWrite, 1, w.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, waiter.cb());
  EXPECT_FALSE(waiter.fired);
  EXPECT_EQ(lm.CancelWaits(2), 1u);
  EXPECT_TRUE(waiter.fired);
  EXPECT_FALSE(waiter.granted);
  // Release of 1 must not grant the cancelled waiter.
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(LockManagerTest, ReleaseGrantsMultipleCompatibleWaiters) {
  LockManager lm;
  Grant w, r1, r2;
  lm.Acquire("x", LockMode::kNCWrite, 1, w.cb());
  lm.Acquire("x", LockMode::kNCRead, 2, r1.cb());
  lm.Acquire("x", LockMode::kNCRead, 3, r2.cb());
  lm.ReleaseAll(1);
  EXPECT_TRUE(r1.granted);
  EXPECT_TRUE(r2.granted);
}

TEST(LockManagerTest, ReleaseAllSpansKeys) {
  LockManager lm;
  Grant a, b, w1, w2;
  lm.Acquire("x", LockMode::kNCWrite, 1, a.cb());
  lm.Acquire("y", LockMode::kNCWrite, 1, b.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, w1.cb());
  lm.Acquire("y", LockMode::kNCWrite, 2, w2.cb());
  lm.ReleaseAll(1);
  EXPECT_TRUE(w1.granted && w2.granted);
  EXPECT_TRUE(lm.Holds("x", 2));
  EXPECT_TRUE(lm.Holds("y", 2));
}

TEST(LockManagerTest, GrantCallbackMayReenter) {
  LockManager lm;
  Grant inner;
  bool outer_granted = false;
  lm.Acquire("x", LockMode::kNCWrite, 1, [](bool) {});
  lm.Acquire("x", LockMode::kNCWrite, 2, [&](bool granted) {
    outer_granted = granted;
    // Re-enter from inside the grant callback.
    lm.Acquire("y", LockMode::kNCWrite, 2, inner.cb());
  });
  lm.ReleaseAll(1);
  EXPECT_TRUE(outer_granted);
  EXPECT_TRUE(inner.granted);
}

TEST(LockManagerTest, CancelPromotesWaitersBehindTheCancelled) {
  // Regression: cancelling a waiter in the middle of the FIFO must grant
  // the now-compatible waiters queued behind it. Without promotion, the
  // commuting requests below would wait for a release that never comes -
  // a distributed deadlock enabler (found by the message-reordering
  // property sweep).
  LockManager lm;
  Grant holder, nc, cu1, cu2;
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, holder.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, nc.cb());       // blocks
  lm.Acquire("x", LockMode::kCommuteUpdate, 3, cu1.cb());  // fair: queues
  lm.Acquire("x", LockMode::kCommuteUpdate, 4, cu2.cb());  // fair: queues
  EXPECT_FALSE(cu1.fired);
  EXPECT_EQ(lm.CancelWaits(2), 1u);
  EXPECT_TRUE(nc.fired);
  EXPECT_FALSE(nc.granted);
  EXPECT_TRUE(cu1.fired && cu1.granted);
  EXPECT_TRUE(cu2.fired && cu2.granted);
  EXPECT_TRUE(lm.Holds("x", 3));
  EXPECT_TRUE(lm.Holds("x", 4));
}

TEST(LockManagerTest, CancelMidQueuePromotesOnlyUpToNextConflict) {
  LockManager lm;
  Grant holder, nc1, cu, nc2, cu2;
  lm.Acquire("x", LockMode::kCommuteUpdate, 1, holder.cb());
  lm.Acquire("x", LockMode::kNCWrite, 2, nc1.cb());
  lm.Acquire("x", LockMode::kCommuteUpdate, 3, cu.cb());
  lm.Acquire("x", LockMode::kNCWrite, 4, nc2.cb());
  lm.Acquire("x", LockMode::kCommuteUpdate, 5, cu2.cb());
  lm.CancelWaits(2);
  EXPECT_TRUE(cu.granted);       // promoted past the cancelled NCW
  EXPECT_FALSE(nc2.fired);       // still conflicts with holders 1 and 3
  EXPECT_FALSE(cu2.fired);       // fair: stays behind the waiting NCW
}

// Thousands of owners over a small hot key set, mostly commuting with a
// non-commuting writer every 16th request, acquired and released in a
// seeded interleaving (each owner is released only once granted, as a
// subtransaction would be): nothing cancels, so every request is granted
// exactly once, some only after waiting, and the table ends empty.
TEST(LockManagerTest, InterleavedOwnersAreEachGrantedOnceAndTheTableDrains) {
  constexpr uint64_t kOwners = 4'000;
  constexpr uint64_t kKeys = 7;
  LockManager lm;
  Rng rng(5);
  std::vector<int> fired(kOwners + 1, 0);
  std::vector<uint64_t> held;  // granted, not yet released
  int denials = 0;
  int deferred = 0;
  uint64_t acquiring = 0;  // owner whose Acquire call is on the stack
  uint64_t next = 1;
  while (next <= kOwners || !held.empty()) {
    if (next <= kOwners && (held.empty() || rng.Bernoulli(0.6))) {
      const uint64_t owner = next++;
      const LockMode mode = owner % 16 == 15 ? LockMode::kNCWrite
                            : owner % 2 == 0 ? LockMode::kCommuteUpdate
                                             : LockMode::kCommuteRead;
      acquiring = owner;
      lm.Acquire("k" + std::to_string(rng.Uniform(kKeys)), mode, owner,
                 [&, owner](bool granted) {
                   ++fired[owner];
                   if (owner != acquiring) ++deferred;
                   if (granted) {
                     held.push_back(owner);
                   } else {
                     ++denials;
                   }
                 });
      acquiring = 0;
    } else {
      const size_t i = rng.Uniform(held.size());
      const uint64_t owner = held[i];
      held[i] = held.back();
      held.pop_back();
      lm.ReleaseAll(owner);
    }
  }
  for (uint64_t owner = 1; owner <= kOwners; ++owner) {
    ASSERT_EQ(fired[owner], 1) << "owner " << owner;
  }
  EXPECT_EQ(denials, 0);
  EXPECT_GT(deferred, 0) << "no request ever waited";
  EXPECT_EQ(lm.HeldCount(), 0u);
  EXPECT_EQ(lm.WaiterCount(), 0u);
}

TEST(LockManagerTest, ReleaseUnknownOwnerIsNoop) {
  LockManager lm;
  lm.ReleaseAll(99);
  EXPECT_EQ(lm.CancelWaits(99), 0u);
}

}  // namespace
}  // namespace threev
