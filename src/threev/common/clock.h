#ifndef THREEV_COMMON_CLOCK_H_
#define THREEV_COMMON_CLOCK_H_

#include <cstdint>

namespace threev {

// Time in microseconds. Under SimNet this is virtual (discrete-event) time;
// under ThreadNet/TcpNet it is steady-clock time since an arbitrary epoch.
using Micros = int64_t;

// Steady-clock time for the real transports (std::chrono::steady_clock).
class RealClock {
 public:
  Micros Now() const;

  // Process-wide singleton (trivially destructible per style rules: returns
  // a reference to a never-deleted instance).
  static RealClock& Instance();
};

}  // namespace threev

#endif  // THREEV_COMMON_CLOCK_H_
