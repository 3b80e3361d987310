#ifndef THREEV_SIM_EVENT_LOOP_H_
#define THREEV_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "threev/common/clock.h"

namespace threev {

// Single-threaded discrete-event scheduler with a virtual microsecond clock.
// Events scheduled for the same instant run in scheduling order (stable tie
// break via a sequence number), which makes whole simulations deterministic
// from a seed.
//
// All protocol engines are passive state machines, so an entire multi-node
// "cluster" runs inside one event loop: perfect for benchmarking message
// complexity and blocking behaviour on a single-core host.
class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Micros Now() const { return now_; }

  // Schedules fn at absolute virtual time `when` (clamped to >= Now()).
  // Returns an id usable with Cancel().
  uint64_t ScheduleAt(Micros when, std::function<void()> fn);
  uint64_t ScheduleAfter(Micros delay, std::function<void()> fn);

  // Best-effort cancellation (the event is skipped when popped).
  void Cancel(uint64_t id);

  // Runs events until the queue is empty. Returns the number executed.
  size_t Run();

  // Runs events until `pred()` is true or the queue is empty. Returns true
  // if the predicate was satisfied.
  bool RunUntil(const std::function<bool()>& pred);

  // Runs events with time <= deadline.
  size_t RunFor(Micros duration);

  // Executes at most one event. Returns false if the queue is empty.
  bool Step();

  bool empty() const { return queue_.size() == cancelled_count_; }
  size_t pending() const { return queue_.size() - cancelled_count_; }

 private:
  struct Event {
    Micros when;
    uint64_t seq;
    uint64_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool PopAndRun(Micros deadline, bool has_deadline);

  Micros now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  size_t cancelled_count_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<uint64_t> cancelled_;  // sorted insertion not needed; small
};

}  // namespace threev

#endif  // THREEV_SIM_EVENT_LOOP_H_
