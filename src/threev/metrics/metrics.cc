#include "threev/metrics/metrics.h"

#include <iomanip>
#include <sstream>
#include <string_view>

namespace threev {

namespace {

constexpr MetricsCounter kCounters[] = {
    {&Metrics::txns_committed, "txns_committed", "txns", "committed"},
    {&Metrics::txns_aborted, "txns_aborted", "txns", "aborted"},
    {&Metrics::subtxns_executed, "subtxns_executed", "txns", "subtxns"},
    {&Metrics::compensations_sent, "compensations_sent", "txns",
     "compensations"},
    {&Metrics::messages_sent, "messages_sent", "net", "messages"},
    {&Metrics::bytes_sent, "bytes_sent", "net", "bytes"},
    {&Metrics::net_writes, "net_writes", "net", "writes"},
    {&Metrics::version_copies, "version_copies", "versioning", "copies"},
    {&Metrics::bytes_copied, "bytes_copied", "versioning", "bytes_copied"},
    {&Metrics::dual_version_writes, "dual_version_writes", "versioning",
     "dual_writes"},
    {&Metrics::version_inferences, "version_inferences", "versioning",
     "inferences"},
    {&Metrics::advancements_completed, "advancements_completed",
     "versioning", "advancements"},
    {&Metrics::quiescence_rounds, "quiescence_rounds", "versioning",
     "quiescence_rounds"},
    {&Metrics::gc_records_visited, "gc_records_visited", "versioning",
     "gc_records_visited"},
    {&Metrics::lock_waits, "lock_waits", "blocking", "lock_waits"},
    {&Metrics::lock_wait_micros, "lock_wait_micros", "blocking",
     "lock_wait_us"},
    {&Metrics::version_gate_waits, "version_gate_waits", "blocking",
     "version_gate_waits"},
    {&Metrics::wal_records, "wal_records", "durability", "wal_records"},
    {&Metrics::wal_bytes, "wal_bytes", "durability", "wal_bytes"},
    {&Metrics::wal_fsyncs, "wal_fsyncs", "durability", "fsyncs"},
    {&Metrics::wal_commits, "wal_commits", "durability", "commits"},
    {&Metrics::wal_commit_failures, "wal_commit_failures", "durability",
     "commit_failures"},
    {&Metrics::checkpoints_written, "checkpoints_written", "durability",
     "checkpoints"},
    {&Metrics::checkpoint_bytes, "checkpoint_bytes", "durability",
     "checkpoint_bytes"},
    {&Metrics::recoveries, "recoveries", "durability", "recoveries"},
    {&Metrics::recovery_replayed_bytes, "recovery_replayed_bytes",
     "durability", "replayed_bytes"},
    {&Metrics::node_crashes, "node_crashes", "faults", "crashes"},
    {&Metrics::messages_dropped, "messages_dropped", "faults", "dropped"},
    {&Metrics::advancement_retransmits, "advancement_retransmits", "faults",
     "adv_retransmits"},
    {&Metrics::twopc_retransmits, "twopc_retransmits", "faults",
     "2pc_retransmits"},
    {&Metrics::fault_injected_drops, "fault_injected_drops", "faults",
     "injected_drops"},
    {&Metrics::fault_injected_delays, "fault_injected_delays", "faults",
     "injected_delays"},
};

constexpr MetricsHistogram kHistograms[] = {
    {&Metrics::update_latency, "update_latency", "update_latency"},
    {&Metrics::read_latency, "read_latency", "read_latency"},
    {&Metrics::advancement_latency, "advancement_latency", "advancement"},
    {&Metrics::staleness, "staleness", "staleness"},
    {&Metrics::recovery_latency, "recovery_latency", "recovery_time"},
    {&Metrics::wal_record_bytes, "wal_record_bytes", "wal_rec_bytes"},
};

}  // namespace

const std::span<const MetricsCounter> kMetricsCounters = kCounters;
const std::span<const MetricsHistogram> kMetricsHistograms = kHistograms;

void Metrics::Reset() {
  for (const MetricsCounter& c : kMetricsCounters) this->*c.field = 0;
  for (const MetricsHistogram& h : kMetricsHistograms) (this->*h.field).Reset();
}

void Metrics::MergeFrom(const Metrics& other) {
  for (const MetricsCounter& c : kMetricsCounters) {
    this->*c.field += (other.*c.field).load();
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    (this->*h.field).Merge(other.*h.field);
  }
}

std::string Metrics::Report() const {
  std::ostringstream os;
  std::string_view section;
  for (const MetricsCounter& c : kMetricsCounters) {
    if (c.section != section) {
      if (!section.empty()) os << "\n";
      section = c.section;
      os << section << ":";
    }
    os << " " << c.label << "=" << (this->*c.field).load();
  }
  os << "\n";
  for (const MetricsHistogram& h : kMetricsHistograms) {
    os << std::left << std::setw(16) << std::string(h.label) + ": "
       << (this->*h.field).Summary() << "\n";
  }
  return os.str();
}

}  // namespace threev
