#ifndef THREEV_COMMON_MUTEX_H_
#define THREEV_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "threev/common/thread_annotations.h"

namespace threev {

// The one lock type of src/threev: a std::mutex that carries the clang
// thread-safety "mutex" capability, so members can be GUARDED_BY(mu_) and
// helpers can REQUIRES(mu_). libstdc++'s std::mutex has no capability
// attributes, which is why a wrapper is needed at all; the wrapper is
// layout- and cost-identical to the std::mutex it holds.
//
// tools/threev_lint.py rejects raw std::mutex / std::lock_guard /
// std::unique_lock anywhere else under src/threev.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII guard over threev::Mutex - the tree's replacement for both
// std::lock_guard and std::unique_lock. Satisfies BasicLockable (lock() /
// unlock()), so std::condition_variable_any waits on it directly:
//
//   MutexLock lock(mu_);
//   cv_.wait(lock, [&] { return ready_; });   // cv_ is condition_variable_any
//
// The manual lock()/unlock() members exist for the condition variable and
// for drop-the-lock-around-a-callback loops (see TcpNet::Flush); the
// object must be locked again when it goes out of scope (condition-variable
// waits re-acquire before returning, so the common pattern is safe by
// construction).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // For condition_variable_any and unlock-across-callback patterns.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

// Condition variable paired with threev::Mutex. std::condition_variable
// only accepts std::unique_lock<std::mutex>, so the annotated tree uses the
// _any variant, which waits on any BasicLockable - including MutexLock.
using CondVar = std::condition_variable_any;

}  // namespace threev

#endif  // THREEV_COMMON_MUTEX_H_
