#ifndef THREEV_BENCH_BENCH_UTIL_H_
#define THREEV_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "threev/baseline/systems.h"

namespace threev {
namespace bench {

// One experiment run: a workload against one coordination strategy on a
// simulated network, with everything the experiment tables need extracted
// into plain numbers.
struct RunConfig {
  SystemKind kind = SystemKind::kThreeV;
  size_t num_nodes = 8;
  uint64_t seed = 1;
  uint64_t num_entities = 500;
  double zipf_theta = 0.9;
  double read_fraction = 0.2;
  double nc_fraction = 0.0;
  size_t fanout = 2;
  size_t total_txns = 3000;
  Micros mean_interarrival = 150;
  // Closed loop: keep `concurrency` transactions in flight instead of
  // Poisson arrivals (used for saturation-throughput studies).
  bool closed_loop = false;
  size_t concurrency = 64;
  // 0 = no advancement. For kManual this is the period-switch cadence.
  Micros advance_period = 25'000;
  Micros manual_safety_delay = 5'000;
  Micros nc_lock_timeout = 50'000;
  Micros coordinator_poll = 2'000;
  double inject_abort_probability = 0.0;
  // Pre-seed every summary key with this much payload (copy-cost studies).
  size_t value_padding = 0;
  // Network model.
  Micros net_min_delay = 300;
  Micros net_mean_extra_delay = 200;
  bool run_checker = true;
};

struct RunOutcome {
  std::string name;
  size_t committed = 0;
  size_t aborted = 0;
  double throughput = 0;  // committed / virtual second
  int64_t upd_p50 = 0, upd_p99 = 0;
  int64_t read_p50 = 0, read_p99 = 0;
  int64_t stale_p50 = 0, stale_p99 = 0;
  int64_t adv_p50 = 0;  // advancement completion latency
  int64_t messages = 0;
  int64_t dual_writes = 0;
  int64_t copies = 0;
  int64_t bytes_copied = 0;
  int64_t advancements = 0;
  int64_t quiescence_rounds = 0;
  int64_t adv_retransmits = 0;  // advancement stage retransmissions
  int64_t lock_waits = 0;
  int64_t gate_waits = 0;
  int64_t compensations = 0;
  size_t max_versions = 0;
  size_t anomalies = 0;

  double messages_per_txn() const {
    size_t n = committed + aborted;
    return n ? static_cast<double>(messages) / static_cast<double>(n) : 0;
  }
};

// Runs the configured workload to completion on a fresh SimNet and
// returns the digested outcome. Deterministic from the seeds.
RunOutcome RunExperiment(const RunConfig& config);

// Prints "name: value" rows under a header; helpers for aligned tables.
void PrintHeader(const std::string& title);

// --- Machine-readable output (bench_hotpath, CI bench-smoke) --------------
//
// Tiny JSON emission helpers so bench mains can export per-run results
// without a JSON library. The hotpath schema is validated by
// tools/check_bench_json.py and documented in bench/README.md.

// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& s);

// One microbenchmark row of the BENCH_hotpath.json report.
struct HotpathResult {
  std::string name;
  size_t threads = 1;
  int64_t ops = 0;          // total operations across all threads
  int64_t elapsed_ns = 0;   // wall time for the whole run
  int64_t p50_ns = 0;       // per-op latency percentiles (batch-sampled)
  int64_t p99_ns = 0;
  int64_t messages = 0;     // wire benches: messages encoded/decoded
  int64_t bytes = 0;        // wire benches: bytes produced/consumed

  double throughput_ops() const {
    return elapsed_ns > 0 ? ops * 1e9 / static_cast<double>(elapsed_ns) : 0;
  }
};

// Serializes the full hotpath report (config + results) and writes it to
// `path` ("-" = stdout). Returns false on I/O failure.
bool WriteHotpathJson(const std::string& path, bool quick,
                      const std::vector<HotpathResult>& results);

}  // namespace bench
}  // namespace threev

#endif  // THREEV_BENCH_BENCH_UTIL_H_
