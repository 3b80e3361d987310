#include "threev/metrics/metrics.h"

#include <sstream>

namespace threev {

void Metrics::Reset() {
  messages_sent = 0;
  bytes_sent = 0;
  txns_committed = 0;
  txns_aborted = 0;
  subtxns_executed = 0;
  compensations_sent = 0;
  version_copies = 0;
  bytes_copied = 0;
  dual_version_writes = 0;
  version_inferences = 0;
  advancements_completed = 0;
  quiescence_rounds = 0;
  gc_records_visited = 0;
  lock_waits = 0;
  lock_wait_micros = 0;
  version_gate_waits = 0;
  wal_records = 0;
  wal_bytes = 0;
  wal_fsyncs = 0;
  wal_commits = 0;
  wal_commit_failures = 0;
  net_writes = 0;
  checkpoints_written = 0;
  checkpoint_bytes = 0;
  recoveries = 0;
  recovery_replayed_bytes = 0;
  messages_dropped = 0;
  advancement_retransmits = 0;
  twopc_retransmits = 0;
  node_crashes = 0;
  fault_injected_drops = 0;
  fault_injected_delays = 0;
  update_latency.Reset();
  read_latency.Reset();
  advancement_latency.Reset();
  staleness.Reset();
  recovery_latency.Reset();
  wal_record_bytes.Reset();
}

void Metrics::MergeFrom(const Metrics& other) {
  messages_sent += other.messages_sent.load();
  bytes_sent += other.bytes_sent.load();
  txns_committed += other.txns_committed.load();
  txns_aborted += other.txns_aborted.load();
  subtxns_executed += other.subtxns_executed.load();
  compensations_sent += other.compensations_sent.load();
  version_copies += other.version_copies.load();
  bytes_copied += other.bytes_copied.load();
  dual_version_writes += other.dual_version_writes.load();
  version_inferences += other.version_inferences.load();
  advancements_completed += other.advancements_completed.load();
  quiescence_rounds += other.quiescence_rounds.load();
  gc_records_visited += other.gc_records_visited.load();
  lock_waits += other.lock_waits.load();
  lock_wait_micros += other.lock_wait_micros.load();
  version_gate_waits += other.version_gate_waits.load();
  wal_records += other.wal_records.load();
  wal_bytes += other.wal_bytes.load();
  wal_fsyncs += other.wal_fsyncs.load();
  wal_commits += other.wal_commits.load();
  wal_commit_failures += other.wal_commit_failures.load();
  net_writes += other.net_writes.load();
  checkpoints_written += other.checkpoints_written.load();
  checkpoint_bytes += other.checkpoint_bytes.load();
  recoveries += other.recoveries.load();
  recovery_replayed_bytes += other.recovery_replayed_bytes.load();
  messages_dropped += other.messages_dropped.load();
  advancement_retransmits += other.advancement_retransmits.load();
  twopc_retransmits += other.twopc_retransmits.load();
  node_crashes += other.node_crashes.load();
  fault_injected_drops += other.fault_injected_drops.load();
  fault_injected_delays += other.fault_injected_delays.load();
  update_latency.Merge(other.update_latency);
  read_latency.Merge(other.read_latency);
  advancement_latency.Merge(other.advancement_latency);
  staleness.Merge(other.staleness);
  recovery_latency.Merge(other.recovery_latency);
  wal_record_bytes.Merge(other.wal_record_bytes);
}

std::string Metrics::Report() const {
  std::ostringstream os;
  os << "txns: committed=" << txns_committed.load()
     << " aborted=" << txns_aborted.load()
     << " subtxns=" << subtxns_executed.load()
     << " compensations=" << compensations_sent.load() << "\n";
  os << "net: messages=" << messages_sent.load()
     << " bytes=" << bytes_sent.load()
     << " writes=" << net_writes.load() << "\n";
  os << "versioning: copies=" << version_copies.load()
     << " bytes_copied=" << bytes_copied.load()
     << " dual_writes=" << dual_version_writes.load()
     << " inferences=" << version_inferences.load()
     << " advancements=" << advancements_completed.load()
     << " quiescence_rounds=" << quiescence_rounds.load()
     << " gc_records_visited=" << gc_records_visited.load() << "\n";
  os << "blocking: lock_waits=" << lock_waits.load()
     << " lock_wait_us=" << lock_wait_micros.load()
     << " version_gate_waits=" << version_gate_waits.load() << "\n";
  os << "durability: wal_records=" << wal_records.load()
     << " wal_bytes=" << wal_bytes.load()
     << " fsyncs=" << wal_fsyncs.load()
     << " commits=" << wal_commits.load()
     << " commit_failures=" << wal_commit_failures.load()
     << " checkpoints=" << checkpoints_written.load()
     << " checkpoint_bytes=" << checkpoint_bytes.load()
     << " recoveries=" << recoveries.load()
     << " replayed_bytes=" << recovery_replayed_bytes.load() << "\n";
  os << "faults: crashes=" << node_crashes.load()
     << " dropped=" << messages_dropped.load()
     << " adv_retransmits=" << advancement_retransmits.load()
     << " 2pc_retransmits=" << twopc_retransmits.load()
     << " injected_drops=" << fault_injected_drops.load()
     << " injected_delays=" << fault_injected_delays.load() << "\n";
  os << "update_latency: " << update_latency.Summary() << "\n";
  os << "read_latency:   " << read_latency.Summary() << "\n";
  os << "advancement:    " << advancement_latency.Summary() << "\n";
  os << "staleness:      " << staleness.Summary() << "\n";
  os << "recovery_time:  " << recovery_latency.Summary() << "\n";
  os << "wal_rec_bytes:  " << wal_record_bytes.Summary() << "\n";
  return os.str();
}

}  // namespace threev
