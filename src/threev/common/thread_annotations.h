#ifndef THREEV_COMMON_THREAD_ANNOTATIONS_H_
#define THREEV_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attribute wrappers.
//
// The locking rules of the classes that are shared between threads (the
// coordinator, the policy driver, the cluster's node slots, the client and
// the transports; DESIGN.md section 6) are machine-checked by compiling
// with clang and -Wthread-safety (the `thread-safety` CMake preset /
// THREEV_THREAD_SAFETY option). On GCC - and
// on clang without the flag - every macro expands to nothing, so the
// annotations cost nothing in the default build.
//
// Conventions used across the tree (see DESIGN.md section 10):
//   * Mutex-protected members are declared with GUARDED_BY(mu_).
//   * Private helpers named *Locked() carry REQUIRES(mu_) and must be called
//     with the mutex held.
//   * Public entry points that take the mutex themselves may carry
//     EXCLUDES(mu_) to document non-reentrancy.
//   * threev::Mutex (common/mutex.h) is the only lock type in src/threev;
//     raw std::mutex is rejected by tools/threev_lint.py because it cannot
//     carry a capability.

#if defined(__clang__) && (!defined(SWIG))
#define THREEV_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define THREEV_THREAD_ANNOTATION(x)  // no-op
#endif

// Type attribute: the class is a lockable capability ("mutex").
#define CAPABILITY(x) THREEV_THREAD_ANNOTATION(capability(x))

// Type attribute: RAII object that acquires a capability in its constructor
// and releases it in its destructor.
#define SCOPED_CAPABILITY THREEV_THREAD_ANNOTATION(scoped_lockable)

// Data member is protected by the given capability.
#define GUARDED_BY(x) THREEV_THREAD_ANNOTATION(guarded_by(x))

// Pointed-to data is protected by the given capability.
#define PT_GUARDED_BY(x) THREEV_THREAD_ANNOTATION(pt_guarded_by(x))

// Caller must hold the capability (exclusively / shared).
#define REQUIRES(...) \
  THREEV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  THREEV_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function acquires the capability (and does not release it).
#define ACQUIRE(...) THREEV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  THREEV_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

// Function releases the capability.
#define RELEASE(...) THREEV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  THREEV_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// Function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) \
  THREEV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (documents non-reentrant entry points
// and catches recursive acquisition at compile time).
#define EXCLUDES(...) THREEV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Asserts at runtime that the capability is held (trust-me escape hatch for
// code paths the analysis cannot follow).
#define ASSERT_CAPABILITY(x) THREEV_THREAD_ANNOTATION(assert_capability(x))

// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) THREEV_THREAD_ANNOTATION(lock_returned(x))

// Opt a function out of the analysis entirely. Use sparingly; every use is
// a hole in the machine-checked discipline.
#define NO_THREAD_SAFETY_ANALYSIS \
  THREEV_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // THREEV_COMMON_THREAD_ANNOTATIONS_H_
