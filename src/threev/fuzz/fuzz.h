#ifndef THREEV_FUZZ_FUZZ_H_
#define THREEV_FUZZ_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "threev/common/clock.h"
#include "threev/fuzz/plan.h"

namespace threev::fuzz {

// Deterministic simulation testing (DESIGN.md section 13): one seed, one
// single-threaded SimNet run alternating traffic windows (a burst of
// workload transactions, drained to full resolution) with fault windows
// (crash points armed at exact protocol messages, each closed by a driven
// advancement), under whole-run drop/delay/reorder rules - then an oracle
// battery over the quiescent end state.
struct FuzzOptions {
  // Test-only protocol bugs, used to prove the oracles catch them.
  enum class InjectedBug : uint8_t {
    kNone = 0,
    // NodeOptions::test_skip_first_completion on `bug_node`.
    kSkipCompletionCounter = 1,
  };
  InjectedBug injected_bug = InjectedBug::kNone;
  int bug_node = 0;
  // WAL scratch directory; empty derives one under the system temp dir
  // from the seed, the process id and a per-process run number, so that
  // concurrent runs of one seed never share it. Wiped at the start and
  // removed at the end of every run.
  std::string scratch_dir;
  // Virtual-time budgets. A healthy schedule finishes far inside these;
  // exceeding one is itself an oracle failure (liveness), never a hang.
  Micros window_cap = 20'000'000;
  Micros advancement_cap = 5'000'000;
};

struct FuzzResult {
  bool ok = false;
  std::vector<std::string> failures;
  // FNV-1a over every delivered message tuple plus the final per-node
  // state: the run's bit-reproducibility witness.
  uint64_t history_hash = 0;
  size_t committed = 0;
  size_t aborted = 0;
  // Client requests whose acknowledgement died with a killed root (their
  // callbacks never fire; presumed abort cleans up behind them).
  size_t orphans = 0;
  int64_t crashes = 0;
  int64_t injected_drops = 0;
  int64_t injected_delays = 0;
  size_t events = 0;  // plan.EventCount()
  Micros virtual_elapsed = 0;

  std::string Summary() const;
};

FuzzResult RunPlan(const FuzzPlan& plan, const FuzzOptions& options = {});
FuzzResult RunSeed(uint64_t seed, bool quick,
                   const FuzzOptions& options = {});

}  // namespace threev::fuzz

#endif  // THREEV_FUZZ_FUZZ_H_
