#ifndef THREEV_CORE_OWNER_THREAD_H_
#define THREEV_CORE_OWNER_THREAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "threev/common/clock.h"
#include "threev/common/ids.h"
#include "threev/net/network.h"

namespace threev {

// "One thread per endpoint, timers are messages" (DESIGN.md section 6):
// the two pieces Node and AdvanceCoordinator share.

// Marks an endpoint's handler busy for the scope of one call and aborts the
// process, in every build type, if another thread already is inside it.
class HandlerScope {
 public:
  HandlerScope(std::atomic<bool>& busy, const char* role, NodeId id);
  ~HandlerScope() { busy_.store(false, std::memory_order_release); }

  HandlerScope(const HandlerScope&) = delete;
  HandlerScope& operator=(const HandlerScope&) = delete;

 private:
  std::atomic<bool>& busy_;
};

// One endpoint's armed timers. Each callback runs once, as the endpoint's
// handler of a kTimer message (Network::ScheduleTimer), so on the thread
// that runs its other messages. Owner thread only, except NewToken. Tokens
// come from one process-wide sequence, so a kTimer armed by a killed
// incarnation, or one whose callback was cancelled, matches nothing.
class OwnedTimers {
 public:
  OwnedTimers(Network* network, NodeId owner)
      : network_(network), owner_(owner) {}

  OwnedTimers(const OwnedTimers&) = delete;
  OwnedTimers& operator=(const OwnedTimers&) = delete;

  // A token no other timer in the process uses; safe on any thread. For a
  // timer whose kTimer the owner dispatches itself.
  static uint64_t NewToken();

  // Runs `fn` after `delay`; returns its token.
  uint64_t Arm(Micros delay, std::function<void()> fn);
  // Forgets the callback armed under `token`.
  void Cancel(uint64_t token) { fns_.erase(token); }
  // Runs and forgets the callback armed under msg.seq; a token with no
  // callback is ignored.
  void Fire(const Message& msg);

 private:
  Network* network_;  // unowned
  NodeId owner_;
  std::unordered_map<uint64_t, std::function<void()>> fns_;
};

}  // namespace threev

#endif  // THREEV_CORE_OWNER_THREAD_H_
