// Thread budget checks for the transports.
#ifndef THREEV_TESTS_TEST_THREADS_H_
#define THREEV_TESTS_TEST_THREADS_H_

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <thread>

namespace threev {

// Threads this process runs now, one /proc/self/task entry each.
inline size_t ThreadsInProcess() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// ThreadsInProcess() once this process runs no thread of its own but the
// caller's. A sanitizer runtime starts a helper thread along with the first
// thread the process creates, so one thread is started and joined first,
// and the count is taken once that thread has left /proc/self/task.
inline size_t ThreadsAtRest() {
  size_t with_extra = 0;
  std::thread([&with_extra] { with_extra = ThreadsInProcess(); }).join();
  for (int i = 0; i < 1000 && ThreadsInProcess() >= with_extra; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ThreadsInProcess();
}

}  // namespace threev

#endif  // THREEV_TESTS_TEST_THREADS_H_
