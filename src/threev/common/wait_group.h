#ifndef THREEV_COMMON_WAIT_GROUP_H_
#define THREEV_COMMON_WAIT_GROUP_H_

#include <chrono>

#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"

namespace threev {

// Counts outstanding work items; Wait() blocks until the count returns to
// zero. Used by tests and real-threaded drivers to await asynchronous
// transaction completions.
class WaitGroup {
 public:
  void Add(int delta = 1) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    count_ += delta;
  }

  // Notifies while holding `mu_`: a waiter that sees the count reach zero
  // may destroy this WaitGroup at once, so Done must not touch `cv_` after
  // releasing the lock.
  void Done() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (--count_ <= 0) cv_.notify_all();
  }

  void Wait() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.wait(lock, [&]() REQUIRES(mu_) { return count_ <= 0; });
  }

  // Returns false on timeout.
  bool WaitFor(std::chrono::milliseconds timeout) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [&]() REQUIRES(mu_) { return count_ <= 0; });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int count_ GUARDED_BY(mu_) = 0;
};

}  // namespace threev

#endif  // THREEV_COMMON_WAIT_GROUP_H_
