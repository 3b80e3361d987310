#ifndef THREEV_TESTS_BLOCKING_QUEUE_H_
#define THREEV_TESTS_BLOCKING_QUEUE_H_

#include <deque>
#include <optional>
#include <utility>

#include "threev/common/mutex.h"
#include "threev/common/thread_annotations.h"

namespace threev {

// Unbounded MPMC blocking queue, for handing results between threads: a
// test collects what handler threads deliver with it. Close() unblocks all
// waiters; after close, Pop drains remaining items and then returns
// nullopt.
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  // Returns false if the queue is closed (item dropped).
  bool Push(T item) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.wait(lock, [&]() REQUIRES(mu_) { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace threev

#endif  // THREEV_TESTS_BLOCKING_QUEUE_H_
