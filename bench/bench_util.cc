#include "bench_util.h"

#include <cstdio>
#include <sstream>

#include "threev/net/sim_net.h"
#include "threev/verify/checker.h"
#include "threev/workload/workload.h"

namespace threev {
namespace bench {

RunOutcome RunExperiment(const RunConfig& config) {
  Metrics metrics;
  HistoryRecorder history;
  SimNet net(SimNetOptions{.seed = config.seed,
                           .min_delay = config.net_min_delay,
                           .mean_extra_delay = config.net_mean_extra_delay},
             &metrics);

  SystemConfig sys_config;
  sys_config.kind = config.kind;
  sys_config.num_nodes = config.num_nodes;
  sys_config.seed = config.seed;
  sys_config.mixed_workload = config.nc_fraction > 0;
  sys_config.nc_lock_timeout = config.nc_lock_timeout;
  sys_config.coordinator_poll_interval = config.coordinator_poll;
  sys_config.manual_safety_delay = config.manual_safety_delay;
  sys_config.inject_abort_probability = config.inject_abort_probability;
  auto system = MakeSystem(sys_config, &net, &metrics,
                           config.run_checker ? &history : nullptr);
  if (config.advance_period > 0) {
    system->EnableAutoAdvance(config.advance_period);
  }

  WorkloadOptions wopts;
  wopts.num_nodes = config.num_nodes;
  wopts.num_entities = config.num_entities;
  wopts.zipf_theta = config.zipf_theta;
  wopts.read_fraction = config.read_fraction;
  wopts.noncommuting_fraction = config.nc_fraction;
  wopts.fanout = config.fanout;
  wopts.seed = config.seed * 1000 + 17;
  WorkloadGenerator gen(wopts);

  if (config.value_padding > 0) {
    // Seed padded records at their home node (key suffix "@<node>").
    Value padded;
    padded.str.assign(config.value_padding, 'x');
    for (const std::string& key : gen.AllSummaryKeys()) {
      auto at = key.rfind('@');
      size_t node = std::stoul(key.substr(at + 1));
      system->node(node).store().Seed(key, padded, 0);
    }
  }

  SimRunStats stats =
      config.closed_loop
          ? RunClosedLoopSim(*system, net, gen, config.total_txns,
                             config.concurrency)
          : RunOpenLoopSim(*system, net, gen, config.total_txns,
                           config.mean_interarrival);
  system->DisableAutoAdvance();
  net.loop().Run();  // drain cleanups, decisions, a final advancement

  RunOutcome out;
  out.name = system->name();
  out.committed = stats.committed;
  out.aborted = stats.aborted;
  out.throughput = stats.throughput_per_sec();
  out.upd_p50 = metrics.update_latency.Percentile(50);
  out.upd_p99 = metrics.update_latency.Percentile(99);
  out.read_p50 = metrics.read_latency.Percentile(50);
  out.read_p99 = metrics.read_latency.Percentile(99);
  out.stale_p50 = metrics.staleness.Percentile(50);
  out.stale_p99 = metrics.staleness.Percentile(99);
  out.adv_p50 = metrics.advancement_latency.Percentile(50);
  out.messages = metrics.messages_sent.load();
  out.dual_writes = metrics.dual_version_writes.load();
  out.copies = metrics.version_copies.load();
  out.bytes_copied = metrics.bytes_copied.load();
  out.advancements = metrics.advancements_completed.load();
  out.quiescence_rounds = metrics.quiescence_rounds.load();
  out.adv_retransmits = metrics.advancement_retransmits.load();
  out.lock_waits = metrics.lock_waits.load();
  out.gate_waits = metrics.version_gate_waits.load();
  out.compensations = metrics.compensations_sent.load();
  for (size_t n = 0; n < system->num_nodes(); ++n) {
    out.max_versions = std::max(
        out.max_versions, system->node(n).store().MaxVersionsObserved());
  }
  if (config.run_checker) {
    CheckResult check = CheckHistory(history.Transactions());
    out.anomalies = check.total_anomalies();
  }
  return out;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteHotpathJson(const std::string& path, bool quick,
                      const std::vector<HotpathResult>& results) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"hotpath\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"config\": {\"quick\": " << (quick ? "true" : "false")
     << ", \"compiler\": \"" << JsonEscape(__VERSION__) << "\"},\n";
  os << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const HotpathResult& r = results[i];
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"name\": \"%s\", \"threads\": %zu, \"ops\": %lld, "
                  "\"elapsed_ns\": %lld, \"throughput_ops\": %.1f, "
                  "\"p50_ns\": %lld, \"p99_ns\": %lld, "
                  "\"messages\": %lld, \"bytes\": %lld}%s\n",
                  JsonEscape(r.name).c_str(), r.threads,
                  static_cast<long long>(r.ops),
                  static_cast<long long>(r.elapsed_ns), r.throughput_ops(),
                  static_cast<long long>(r.p50_ns),
                  static_cast<long long>(r.p99_ns),
                  static_cast<long long>(r.messages),
                  static_cast<long long>(r.bytes),
                  i + 1 < results.size() ? "," : "");
    os << row;
  }
  os << "  ]\n}\n";

  if (path == "-") {
    std::fputs(os.str().c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs(os.str().c_str(), f) >= 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace bench
}  // namespace threev
