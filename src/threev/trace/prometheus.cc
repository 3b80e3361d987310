#include "threev/trace/prometheus.h"

#include <cinttypes>
#include <cstdio>

namespace threev {

namespace {

void AppendCounter(std::string* out, const char* name, int64_t value,
                   const std::string& labels) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# TYPE threev_%s_total counter\nthreev_%s_total%s%s%s %" PRId64
                "\n",
                name, name, labels.empty() ? "" : "{",
                labels.c_str(), labels.empty() ? "" : "}", value);
  *out += buf;
}

void AppendQuantile(std::string* out, const std::string& name, double q,
                    int64_t value, const std::string& labels) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s{%s%squantile=\"%g\"} %" PRId64 "\n",
                name.c_str(), labels.c_str(), labels.empty() ? "" : ",", q,
                value);
  *out += buf;
}

}  // namespace

void AppendHistogramSummary(std::string* out, const std::string& name,
                            const Histogram& h, const std::string& labels) {
  const std::string full = "threev_" + name + "_us";
  *out += "# TYPE " + full + " summary\n";
  AppendQuantile(out, full, 0.5, h.Percentile(50), labels);
  AppendQuantile(out, full, 0.9, h.Percentile(90), labels);
  AppendQuantile(out, full, 0.99, h.Percentile(99), labels);
  char buf[192];
  const char *lb = labels.empty() ? "" : "{", *rb = labels.empty() ? "" : "}";
  std::snprintf(buf, sizeof(buf), "%s_sum%s%s%s %" PRId64 "\n", full.c_str(),
                lb, labels.c_str(), rb, h.sum());
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%s_count%s%s%s %" PRId64 "\n", full.c_str(),
                lb, labels.c_str(), rb, h.count());
  *out += buf;
}

std::string PrometheusText(const Metrics& m, const std::string& labels) {
  std::string out;
  out.reserve(4096);
  AppendCounter(&out, "messages_sent", m.messages_sent.load(), labels);
  AppendCounter(&out, "bytes_sent", m.bytes_sent.load(), labels);
  AppendCounter(&out, "txns_committed", m.txns_committed.load(), labels);
  AppendCounter(&out, "txns_aborted", m.txns_aborted.load(), labels);
  AppendCounter(&out, "subtxns_executed", m.subtxns_executed.load(), labels);
  AppendCounter(&out, "compensations_sent", m.compensations_sent.load(),
                labels);
  AppendCounter(&out, "version_copies", m.version_copies.load(), labels);
  AppendCounter(&out, "bytes_copied", m.bytes_copied.load(), labels);
  AppendCounter(&out, "dual_version_writes", m.dual_version_writes.load(),
                labels);
  AppendCounter(&out, "version_inferences", m.version_inferences.load(),
                labels);
  AppendCounter(&out, "advancements_completed",
                m.advancements_completed.load(), labels);
  AppendCounter(&out, "quiescence_rounds", m.quiescence_rounds.load(), labels);
  AppendCounter(&out, "gc_records_visited", m.gc_records_visited.load(),
                labels);
  AppendCounter(&out, "lock_waits", m.lock_waits.load(), labels);
  AppendCounter(&out, "lock_wait_micros", m.lock_wait_micros.load(), labels);
  AppendCounter(&out, "version_gate_waits", m.version_gate_waits.load(),
                labels);
  AppendCounter(&out, "wal_records", m.wal_records.load(), labels);
  AppendCounter(&out, "wal_bytes", m.wal_bytes.load(), labels);
  AppendCounter(&out, "wal_fsyncs", m.wal_fsyncs.load(), labels);
  AppendCounter(&out, "wal_commits", m.wal_commits.load(), labels);
  AppendCounter(&out, "wal_commit_failures", m.wal_commit_failures.load(),
                labels);
  AppendCounter(&out, "net_writes", m.net_writes.load(), labels);
  AppendCounter(&out, "checkpoints_written", m.checkpoints_written.load(),
                labels);
  AppendCounter(&out, "checkpoint_bytes", m.checkpoint_bytes.load(), labels);
  AppendCounter(&out, "recoveries", m.recoveries.load(), labels);
  AppendCounter(&out, "recovery_replayed_bytes",
                m.recovery_replayed_bytes.load(), labels);
  AppendCounter(&out, "messages_dropped", m.messages_dropped.load(), labels);
  AppendCounter(&out, "advancement_retransmits",
                m.advancement_retransmits.load(), labels);
  AppendCounter(&out, "twopc_retransmits", m.twopc_retransmits.load(), labels);
  AppendCounter(&out, "node_crashes", m.node_crashes.load(), labels);
  AppendCounter(&out, "fault_injected_drops", m.fault_injected_drops.load(),
                labels);
  AppendCounter(&out, "fault_injected_delays", m.fault_injected_delays.load(),
                labels);
  AppendHistogramSummary(&out, "update_latency", m.update_latency, labels);
  AppendHistogramSummary(&out, "read_latency", m.read_latency, labels);
  AppendHistogramSummary(&out, "advancement_latency", m.advancement_latency,
                         labels);
  AppendHistogramSummary(&out, "staleness", m.staleness, labels);
  AppendHistogramSummary(&out, "recovery_latency", m.recovery_latency, labels);
  AppendHistogramSummary(&out, "wal_record_bytes", m.wal_record_bytes, labels);
  return out;
}

std::string PrometheusTextAggregate(
    const std::vector<const Metrics*>& nodes) {
  Metrics total;
  for (const Metrics* m : nodes) {
    if (m != nullptr) total.MergeFrom(*m);
  }
  return PrometheusText(total);
}

}  // namespace threev
