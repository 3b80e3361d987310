#include "threev/core/owner_thread.h"

#include "threev/common/logging.h"

namespace threev {

namespace {
std::atomic<uint64_t> next_timer_token{1};
}  // namespace

HandlerScope::HandlerScope(std::atomic<bool>& busy, const char* role,
                           NodeId id)
    : busy_(busy) {
  THREEV_CHECK(!busy_.exchange(true, std::memory_order_acquire))
      << role << " " << id << ": two threads ran its handler at once";
}

uint64_t OwnedTimers::NewToken() {
  return next_timer_token.fetch_add(1, std::memory_order_relaxed);
}

uint64_t OwnedTimers::Arm(Micros delay, std::function<void()> fn) {
  const uint64_t token = NewToken();
  fns_.emplace(token, std::move(fn));
  network_->ScheduleTimer(owner_, delay, token);
  return token;
}

void OwnedTimers::Fire(const Message& msg) {
  auto it = fns_.find(msg.seq);
  if (it == fns_.end()) return;
  std::function<void()> fn = std::move(it->second);
  fns_.erase(it);
  fn();
}

}  // namespace threev
