#ifndef THREEV_METRICS_METRICS_H_
#define THREEV_METRICS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "threev/metrics/histogram.h"

namespace threev {

// System-wide counters shared by all protocol engines. Every field is an
// atomic so nodes on different threads can bump them without coordination;
// benches snapshot and print them. Like Histogram, this struct is lock-free
// by design and therefore carries no mutex capability for the clang
// thread-safety pass: each increment is individually atomic (the paper's
// only concurrency assumption about its counters), cross-field consistency
// is explicitly NOT promised while writers run, and Reset() requires
// external quiescence. The dual_version_writes / version copies
// counters back the paper's "at most three versions / copy once per
// advancement" claims (experiments B-3COPIES, B-ABLATE-COW).
//
// Every instrument also has one row in kMetricsCounters or
// kMetricsHistograms (below), which Reset(), MergeFrom(), Report() and the
// Prometheus exporter loop over; tools/threev_lint.py checks that each
// field has exactly one row. Adding an instrument is the field plus its
// row. Keep the fields' order: their layout alone moves wall-clock
// throughput, so new fields go last (DESIGN.md section 12).
struct Metrics {
  // Traffic.
  std::atomic<int64_t> messages_sent{0};
  std::atomic<int64_t> bytes_sent{0};

  // Transactions.
  std::atomic<int64_t> txns_committed{0};
  std::atomic<int64_t> txns_aborted{0};
  std::atomic<int64_t> subtxns_executed{0};
  std::atomic<int64_t> compensations_sent{0};

  // Versioning behaviour.
  std::atomic<int64_t> version_copies{0};        // copy-on-update events
  std::atomic<int64_t> bytes_copied{0};          // payload bytes copied
  std::atomic<int64_t> dual_version_writes{0};   // straggler double-writes
  // Advancement learned from a newer-version subtransaction arriving
  // before the coordinator's notice (Section 4.1 step 2).
  std::atomic<int64_t> version_inferences{0};
  std::atomic<int64_t> advancements_completed{0};
  std::atomic<int64_t> quiescence_rounds{0};     // phase-2/4 read waves pairs
  // Records phase-4 GC visited, summed over GCs: the dirty-listed records,
  // not the store size (VersionedStore::GarbageCollect).
  std::atomic<int64_t> gc_records_visited{0};

  // Blocking behaviour (the paper's headline claim is that these stay zero
  // for user transactions in pure-3V mode).
  std::atomic<int64_t> lock_waits{0};
  std::atomic<int64_t> lock_wait_micros{0};
  std::atomic<int64_t> version_gate_waits{0};    // NC3V vu==vr+1 gate

  // Durability & crash recovery.
  std::atomic<int64_t> wal_records{0};
  std::atomic<int64_t> wal_bytes{0};
  std::atomic<int64_t> wal_fsyncs{0};
  std::atomic<int64_t> checkpoints_written{0};
  std::atomic<int64_t> checkpoint_bytes{0};
  std::atomic<int64_t> recoveries{0};
  std::atomic<int64_t> recovery_replayed_bytes{0};
  // Fault tolerance: dropped deliveries to dead endpoints and protocol
  // retransmissions that un-stick advancement / 2PC after a crash.
  std::atomic<int64_t> messages_dropped{0};
  std::atomic<int64_t> advancement_retransmits{0};
  std::atomic<int64_t> twopc_retransmits{0};
  std::atomic<int64_t> node_crashes{0};
  // Schedule-exploration fault injection (SimNet::SetFaultInjector):
  // messages deliberately lost / delivery-delayed by a fuzz schedule.
  // Injected drops also count under messages_dropped.
  std::atomic<int64_t> fault_injected_drops{0};
  std::atomic<int64_t> fault_injected_delays{0};

  // Latency distributions (microseconds; virtual under SimNet).
  Histogram update_latency;
  Histogram read_latency;
  Histogram advancement_latency;
  Histogram staleness;  // age of data returned to read-only transactions
  Histogram recovery_latency;   // wall-clock checkpoint+log replay time
  Histogram wal_record_bytes;   // framed size per appended redo record

  // WAL group commits: one per write(2) of staged frames, and the writes
  // that failed (each halts its node, fail-stop). Declared last so that the
  // fields above, which every node thread bumps, keep their offsets and
  // cache-line neighbours.
  std::atomic<int64_t> wal_commits{0};
  std::atomic<int64_t> wal_commit_failures{0};
  // TCP writes: one per successful send(2) on an outbound connection, so
  // remote frames sent over net_writes is frames per write.
  std::atomic<int64_t> net_writes{0};

  void Reset();

  // Adds another instance's counters and distributions into this one, for
  // cross-node aggregation (the Prometheus exporter merges per-node Metrics
  // into a scratch instance). Like Reset()/Histogram::Merge(), NOT an
  // atomic snapshot: call only while `other`'s writers are quiescent.
  void MergeFrom(const Metrics& other);

  // Multi-line human-readable dump.
  std::string Report() const;
};

// One row per atomic counter: the Prometheus sample is
// `threev_<name>_total`, and Report() prints ` <label>=<value>` on the line
// `<section>:`. Rows of one section are adjacent, in Report()'s order.
struct MetricsCounter {
  std::atomic<int64_t> Metrics::*field;
  const char* name;
  const char* section;
  const char* label;
};

// One row per histogram: the Prometheus summary is `threev_<name>_us`, and
// Report() prints it on its own line as `<label>: <Summary()>`.
struct MetricsHistogram {
  Histogram Metrics::*field;
  const char* name;
  const char* label;
};

extern const std::span<const MetricsCounter> kMetricsCounters;
extern const std::span<const MetricsHistogram> kMetricsHistograms;

}  // namespace threev

#endif  // THREEV_METRICS_METRICS_H_
